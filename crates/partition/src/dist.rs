//! Distributed-graph construction: per-rank local graphs with ghost
//! vertices.
//!
//! §3.3 of the paper: "Cross edges are represented using ghost vertices: a
//! boundary vertex u is stored on its corresponding processor p(u) as well
//! as on every other processor p(v) such that (u, v) is a cross edge. On
//! processor p(v) vertex u represents a ghost vertex."
//!
//! Local index layout on each rank: owned vertices occupy `0..n_local`,
//! ghosts occupy `n_local..n_local + n_ghost`. Only owned vertices carry an
//! adjacency row.
//!
//! Construction is one pass per rank over its owned rows. An owned
//! neighbor's local index is its position in the owner's vertex list,
//! which [`DistGraph::build_all`] computes once for all ranks as a dense
//! array; only a cut edge probes a hash map, to number its ghost the
//! first time it is met (DESIGN.md §16).

use crate::Partition;
use cmg_graph::util::FxHashMap;
use cmg_graph::{CsrGraph, VertexId, Weight};

/// A rank (re-declared locally to avoid a dependency on `cmg-runtime`;
/// the numeric type matches `cmg_runtime::Rank`).
pub type Rank = u32;

/// One rank's piece of a distributed graph.
#[derive(Clone, Debug, PartialEq)]
pub struct DistGraph {
    /// This rank's id.
    pub rank: Rank,
    /// Total number of ranks.
    pub num_ranks: Rank,
    /// Number of owned (local) vertices.
    pub n_local: usize,
    /// CSR offsets over owned vertices (length `n_local + 1`).
    pub xadj: Vec<usize>,
    /// Adjacency in *local indices* (owned or ghost).
    pub adj: Vec<u32>,
    /// Edge weights parallel to `adj` (empty if the global graph is
    /// unweighted).
    pub weights: Vec<Weight>,
    /// Global id of each local index (owned then ghosts).
    pub global_ids: Vec<VertexId>,
    /// Owner rank of each ghost, indexed by `local - n_local`.
    pub ghost_owner: Vec<Rank>,
    /// Global id → local index, for owned and ghost vertices of this rank.
    pub global_to_local: FxHashMap<VertexId, u32>,
    /// `is_boundary[v]` for owned `v`: has at least one ghost neighbor.
    pub is_boundary: Vec<bool>,
    /// Sorted list of neighboring ranks (ranks owning at least one ghost).
    pub neighbor_ranks: Vec<Rank>,
}

impl DistGraph {
    /// Builds every rank's local graph from a global graph and partition
    /// (the paper assumes "the input graph is pre-distributed").
    ///
    /// # Panics
    /// Panics if graph and partition disagree on the vertex count.
    pub fn build_all(g: &CsrGraph, partition: &Partition) -> Vec<DistGraph> {
        assert_eq!(g.num_vertices(), partition.num_vertices());
        let p = partition.num_parts();

        // Owned vertices per rank, in global-id order (deterministic),
        // and each vertex's position in its owner's list: the local index
        // it has on that rank, shared by all `p` builds.
        let mut owned: Vec<Vec<VertexId>> = vec![Vec::new(); p as usize];
        let mut local: Vec<u32> = Vec::with_capacity(g.num_vertices());
        for v in 0..g.num_vertices() as VertexId {
            let list = &mut owned[partition.owner(v) as usize];
            local.push(list.len() as u32);
            list.push(v);
        }

        (0..p)
            .map(|rank| Self::build_one(g, partition, rank, &owned[rank as usize], &local))
            .collect()
    }

    /// Builds a single rank's local graph. A rank's [`DistGraph`]
    /// depends only on the edges incident to its owned vertices, so an
    /// incremental caller (cmg-serve) can refresh just the ranks whose
    /// owned vertices touched a mutation instead of rebuilding all `p`
    /// slices.
    ///
    /// # Panics
    /// Panics if graph and partition disagree on the vertex count.
    pub fn build_for_rank(g: &CsrGraph, partition: &Partition, rank: Rank) -> DistGraph {
        assert_eq!(g.num_vertices(), partition.num_vertices());
        let mut owned: Vec<VertexId> = Vec::new();
        let mut local = vec![0u32; g.num_vertices()];
        for v in 0..g.num_vertices() as VertexId {
            if partition.owner(v) == rank {
                local[v as usize] = owned.len() as u32;
                owned.push(v);
            }
        }
        Self::build_one(g, partition, rank, &owned, &local)
    }

    /// `local[u]` must be the position of `u` in `owned` for every `u`
    /// this rank owns; other entries are not read.
    fn build_one(
        g: &CsrGraph,
        partition: &Partition,
        rank: Rank,
        owned: &[VertexId],
        local: &[u32],
    ) -> DistGraph {
        let n_local = owned.len();
        let nnz: usize = owned.iter().map(|&v| g.degree(v)).sum();
        let mut global_ids: Vec<VertexId> = owned.to_vec();
        let mut ghost_owner: Vec<Rank> = Vec::new();
        // Holds the ghosts alone during the pass below, so that only a
        // cut edge pays for a probe, into a table the size of the halo.
        let mut global_to_local: FxHashMap<VertexId, u32> = FxHashMap::default();

        // One pass over the owned adjacency: owned neighbors translate
        // by index, ghosts are numbered in the order they are first met.
        let mut xadj = Vec::with_capacity(n_local + 1);
        xadj.push(0usize);
        let mut adj = Vec::with_capacity(nnz);
        let mut weights = Vec::with_capacity(if g.is_weighted() { nnz } else { 0 });
        let mut is_boundary = vec![false; n_local];
        for (i, &v) in owned.iter().enumerate() {
            for &u in g.neighbors(v) {
                let o = partition.owner(u);
                adj.push(if o == rank {
                    local[u as usize]
                } else {
                    is_boundary[i] = true;
                    *global_to_local.entry(u).or_insert_with(|| {
                        global_ids.push(u);
                        ghost_owner.push(o);
                        (global_ids.len() - 1) as u32
                    })
                });
            }
            weights.extend_from_slice(g.neighbor_weights(v));
            xadj.push(adj.len());
        }
        global_to_local.reserve(n_local);
        global_to_local.extend(owned.iter().zip(0u32..).map(|(&v, i)| (v, i)));

        let mut neighbor_ranks: Vec<Rank> = ghost_owner.clone();
        neighbor_ranks.sort_unstable();
        neighbor_ranks.dedup();

        DistGraph {
            rank,
            num_ranks: partition.num_parts(),
            n_local,
            xadj,
            adj,
            weights,
            global_ids,
            ghost_owner,
            global_to_local,
            is_boundary,
            neighbor_ranks,
        }
    }

    /// Number of ghost vertices.
    #[inline]
    pub fn n_ghost(&self) -> usize {
        self.ghost_owner.len()
    }

    /// Total local indices (owned + ghost).
    #[inline]
    pub fn n_total(&self) -> usize {
        self.n_local + self.n_ghost()
    }

    /// `true` if local index `v` refers to a ghost.
    #[inline]
    pub fn is_ghost(&self, v: u32) -> bool {
        v as usize >= self.n_local
    }

    /// Owner rank of local index `v` (self for owned vertices).
    #[inline]
    pub fn owner(&self, v: u32) -> Rank {
        if self.is_ghost(v) {
            self.ghost_owner[v as usize - self.n_local]
        } else {
            self.rank
        }
    }

    /// Degree of owned vertex `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        self.xadj[v as usize + 1] - self.xadj[v as usize]
    }

    /// Neighbors (local indices) of owned vertex `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.adj[self.xadj[v as usize]..self.xadj[v as usize + 1]]
    }

    /// Neighbor weights parallel to [`Self::neighbors`] (empty if
    /// unweighted).
    #[inline]
    pub fn neighbor_weights(&self, v: u32) -> &[Weight] {
        if self.weights.is_empty() {
            &[]
        } else {
            &self.weights[self.xadj[v as usize]..self.xadj[v as usize + 1]]
        }
    }

    /// Iterates `(neighbor_local, weight)` of owned vertex `v` (weight 1.0
    /// if unweighted).
    pub fn neighbors_weighted(&self, v: u32) -> impl Iterator<Item = (u32, Weight)> + '_ {
        let lo = self.xadj[v as usize];
        let hi = self.xadj[v as usize + 1];
        let weighted = !self.weights.is_empty();
        (lo..hi).map(move |i| (self.adj[i], if weighted { self.weights[i] } else { 1.0 }))
    }

    /// Number of owned boundary vertices.
    pub fn num_boundary(&self) -> usize {
        self.is_boundary.iter().filter(|&&b| b).count()
    }
}

/// Sanity-checks a set of rank-local graphs against the global graph they
/// were built from (test helper; exercised heavily in the integration
/// suite).
pub fn validate_distribution(g: &CsrGraph, parts: &[DistGraph]) -> Result<(), String> {
    let mut seen = vec![false; g.num_vertices()];
    let mut edge_count = 0usize;
    for dg in parts {
        for vl in 0..dg.n_local as u32 {
            let vg = dg.global_ids[vl as usize];
            if seen[vg as usize] {
                return Err(format!("vertex {vg} owned twice"));
            }
            seen[vg as usize] = true;
            if dg.degree(vl) != g.degree(vg) {
                return Err(format!("vertex {vg}: degree mismatch"));
            }
            let mut nbrs: Vec<VertexId> = dg
                .neighbors(vl)
                .iter()
                .map(|&ul| dg.global_ids[ul as usize])
                .collect();
            nbrs.sort_unstable();
            if nbrs != g.neighbors(vg) {
                return Err(format!("vertex {vg}: neighbor set mismatch"));
            }
            edge_count += dg.degree(vl);
        }
        for (gi, &owner) in dg.ghost_owner.iter().enumerate() {
            if owner == dg.rank {
                return Err(format!(
                    "rank {}: ghost {} owned by itself",
                    dg.rank,
                    dg.global_ids[dg.n_local + gi]
                ));
            }
        }
    }
    if seen.iter().any(|&s| !s) {
        return Err("some vertex owned by no rank".into());
    }
    if edge_count != 2 * g.num_edges() {
        return Err(format!(
            "directed edge count mismatch: {} vs {}",
            edge_count,
            2 * g.num_edges()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simple::{block_partition, grid2d_partition, hash_partition};
    use cmg_graph::generators::{grid2d, rmat};
    use cmg_graph::weights::{assign_weights, WeightScheme};

    #[test]
    fn grid_distribution_is_consistent() {
        let g = grid2d(6, 6);
        let p = grid2d_partition(6, 6, 2, 2);
        let parts = DistGraph::build_all(&g, &p);
        assert_eq!(parts.len(), 4);
        validate_distribution(&g, &parts).unwrap();
        // Each rank owns a 3x3 subgrid; corner subgrids have 5 boundary
        // vertices (the two interior-facing sides).
        for dg in &parts {
            assert_eq!(dg.n_local, 9);
            assert_eq!(dg.num_boundary(), 5);
            // 5-point stencil: only the two side-adjacent ranks, no diagonal.
            assert_eq!(dg.neighbor_ranks.len(), 2);
        }
    }

    #[test]
    fn five_point_grid_has_no_diagonal_rank_neighbors() {
        // On a 4x4 grid split 2x2, each rank's ghosts come only from the 2
        // side-adjacent ranks (5-point stencil has no diagonals).
        let g = grid2d(4, 4);
        let p = grid2d_partition(4, 4, 2, 2);
        let parts = DistGraph::build_all(&g, &p);
        for dg in &parts {
            assert_eq!(dg.neighbor_ranks.len(), 2, "rank {}", dg.rank);
        }
    }

    /// Rebuilds every field of every rank's slice from its definition
    /// and checks `build_all` and `build_for_rank` against it.
    fn assert_slices_follow_the_definition(g: &CsrGraph, p: &Partition) {
        let parts = DistGraph::build_all(g, p);
        assert_eq!(parts.len(), p.num_parts() as usize);
        validate_distribution(g, &parts).unwrap();
        for dg in &parts {
            assert_eq!(*dg, DistGraph::build_for_rank(g, p, dg.rank));
            let mine = |v: &VertexId| p.owner(*v) == dg.rank;
            // Owned vertices ascending, then ghosts as a scan of the
            // owned rows first meets them.
            let mut ids: Vec<VertexId> = (0..g.num_vertices() as VertexId).filter(mine).collect();
            assert_eq!(dg.n_local, ids.len());
            for v in ids.clone() {
                for u in g.neighbors(v) {
                    if !mine(u) && !ids[dg.n_local..].contains(u) {
                        ids.push(*u);
                    }
                }
            }
            assert_eq!(dg.global_ids, ids);
            let owners: Vec<Rank> = ids[dg.n_local..].iter().map(|&u| p.owner(u)).collect();
            assert_eq!(dg.ghost_owner, owners);
            let ranks: std::collections::BTreeSet<Rank> = owners.into_iter().collect();
            assert_eq!(dg.neighbor_ranks, ranks.into_iter().collect::<Vec<_>>());
            assert_eq!(dg.global_to_local.len(), ids.len());
            for (l, v) in ids.iter().enumerate() {
                assert_eq!(dg.global_to_local[v], l as u32);
            }
            // Rows keep the global graph's neighbor order and weights.
            for (l, &v) in ids[..dg.n_local].iter().enumerate() {
                let row: Vec<VertexId> = dg
                    .neighbors(l as u32)
                    .iter()
                    .map(|&u| ids[u as usize])
                    .collect();
                assert_eq!(row, g.neighbors(v));
                assert_eq!(dg.neighbor_weights(l as u32), g.neighbor_weights(v));
                assert_eq!(dg.is_boundary[l], !g.neighbors(v).iter().all(mine));
            }
        }
    }

    #[test]
    fn every_slice_follows_the_definition() {
        let grid = assign_weights(
            &grid2d(12, 10),
            WeightScheme::Uniform { lo: 0.0, hi: 1.0 },
            5,
        );
        assert_slices_follow_the_definition(&grid, &grid2d_partition(12, 10, 2, 2));
        let rmat = rmat(8, 8, (0.57, 0.19, 0.19, 0.05), 11);
        assert_slices_follow_the_definition(&rmat, &hash_partition(rmat.num_vertices(), 4, 3));
        let weighted = assign_weights(&rmat, WeightScheme::Integer { max: 9 }, 2);
        assert_slices_follow_the_definition(&weighted, &hash_partition(rmat.num_vertices(), 5, 8));
        // 3 vertices on 4 ranks: one rank owns nothing.
        assert_slices_follow_the_definition(&grid2d(1, 3), &block_partition(3, 4));
        assert_slices_follow_the_definition(&grid, &Partition::single(120));
    }

    #[test]
    fn empty_rank_is_fine() {
        // 3 vertices, 4 ranks: one rank owns nothing.
        let g = grid2d(1, 3);
        let p = block_partition(3, 4);
        let parts = DistGraph::build_all(&g, &p);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[3].n_local, 0);
        assert_eq!(parts[3].n_ghost(), 0);
        validate_distribution(&g, &parts).unwrap();
    }

    #[test]
    fn single_rank_has_no_ghosts() {
        let g = grid2d(4, 4);
        let p = Partition::single(16);
        let parts = DistGraph::build_all(&g, &p);
        assert_eq!(parts[0].n_ghost(), 0);
        assert_eq!(parts[0].num_boundary(), 0);
        assert!(parts[0].neighbor_ranks.is_empty());
    }
}
