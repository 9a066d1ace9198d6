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
//! **The owned prefix ascends.** `global_ids[..n_local]` is strictly
//! ascending on every slice: [`DistGraph::build_all`] lists a rank's
//! vertices in global-id order, `grid_dist` in row-major block order, and
//! both `debug_assert!` it; [`DistGraph::from_fields`] (the net wire
//! input) refuses a slice that breaks it. So [`DistGraph::local`] finds an
//! owned vertex by binary search, and only ghosts — the halo, not the
//! rank — sit in a hash table.
//!
//! Construction is one pass per rank over its owned rows. An owned
//! neighbor's local index is its position in the owner's vertex list,
//! which [`DistGraph::build_all`] computes once for all ranks as a dense
//! array; only a cut edge probes the ghost table, to number its ghost the
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
    /// Global id of each local index: owned vertices in strictly
    /// ascending order, then ghosts.
    pub global_ids: Vec<VertexId>,
    /// Owner rank of each ghost, indexed by `local - n_local`.
    pub ghost_owner: Vec<Rank>,
    /// `is_boundary[v]` for owned `v`: has at least one ghost neighbor.
    pub is_boundary: Vec<bool>,
    /// Sorted list of neighboring ranks (ranks owning at least one ghost).
    pub neighbor_ranks: Vec<Rank>,
    /// Ghost global id → local index. Owned vertices are not in it:
    /// [`DistGraph::local`] finds them in the ascending owned prefix.
    pub(crate) ghosts: FxHashMap<VertexId, u32>,
}

/// The sorted, distinct owners of a ghost list: a slice's
/// `neighbor_ranks`.
pub(crate) fn ranks_of(ghost_owner: &[Rank]) -> Vec<Rank> {
    let mut ranks = ghost_owner.to_vec();
    ranks.sort_unstable();
    ranks.dedup();
    ranks
}

/// `true` if `ids` is strictly ascending (the owned-prefix invariant).
pub(crate) fn strictly_ascending(ids: &[VertexId]) -> bool {
    ids.windows(2).all(|w| w[0] < w[1])
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
        // Only a cut edge pays for a probe, into a table the size of the
        // halo.
        let mut ghosts: FxHashMap<VertexId, u32> = FxHashMap::default();

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
                    *ghosts.entry(u).or_insert_with(|| {
                        global_ids.push(u);
                        ghost_owner.push(o);
                        (global_ids.len() - 1) as u32
                    })
                });
            }
            weights.extend_from_slice(g.neighbor_weights(v));
            xadj.push(adj.len());
        }
        debug_assert!(strictly_ascending(owned));

        DistGraph {
            rank,
            num_ranks: partition.num_parts(),
            n_local,
            xadj,
            adj,
            weights,
            global_ids,
            neighbor_ranks: ranks_of(&ghost_owner),
            ghost_owner,
            is_boundary,
            ghosts,
        }
    }

    /// Reassembles a slice from the fields the net wire format carries
    /// (everything but the ghost table, which is rebuilt here). They
    /// crossed a process boundary, so every invariant a reader indexes
    /// by — the ascending owned prefix, and boundary flags set exactly for
    /// the rows with a ghost, which `DistMatching`'s proposal lists rely
    /// on, among them — is checked: a violation is an `Err` naming it
    /// rather than a panic later.
    #[allow(clippy::too_many_arguments)]
    pub fn from_fields(
        rank: Rank,
        num_ranks: Rank,
        n_local: usize,
        xadj: Vec<usize>,
        adj: Vec<u32>,
        weights: Vec<Weight>,
        global_ids: Vec<VertexId>,
        ghost_owner: Vec<Rank>,
        is_boundary: Vec<bool>,
        neighbor_ranks: Vec<Rank>,
    ) -> Result<DistGraph, String> {
        macro_rules! ensure {
            ($ok:expr, $($why:tt)+) => {
                if !$ok {
                    return Err(format!($($why)+));
                }
            };
        }
        ensure!(rank < num_ranks, "rank {rank} of {num_ranks} ranks");
        let n = xadj.len();
        ensure!(
            n == n_local + 1,
            "n_local {n_local} but xadj has {n} entries"
        );
        let m = adj.len();
        ensure!(
            xadj[0] == 0 && xadj[n_local] == m && xadj.windows(2).all(|w| w[0] <= w[1]),
            "xadj does not rise from 0 to the {m} adjacency entries"
        );
        let (n_total, n_ghost) = (global_ids.len(), ghost_owner.len());
        ensure!(
            n_total == n_local + n_ghost,
            "{n_total} global ids for {n_local} owned + {n_ghost} ghosts"
        );
        ensure!(
            adj.iter().all(|&u| (u as usize) < n_total),
            "an adjacency entry is not one of the {n_total} local indices"
        );
        ensure!(
            weights.is_empty() || weights.len() == m,
            "{} weights for {m} adjacency entries",
            weights.len()
        );
        ensure!(
            is_boundary.len() == n_local,
            "{} boundary flags for {n_local} owned vertices",
            is_boundary.len()
        );
        ensure!(
            (0..n_local).all(|v| is_boundary[v]
                == adj[xadj[v]..xadj[v + 1]]
                    .iter()
                    .any(|&u| u as usize >= n_local)),
            "a boundary flag disagrees with its row"
        );
        ensure!(
            ghost_owner.iter().all(|&o| o < num_ranks && o != rank),
            "a ghost owner is not another of the {num_ranks} ranks"
        );
        let owned = &global_ids[..n_local];
        ensure!(
            strictly_ascending(owned),
            "owned global ids are not strictly ascending"
        );
        let mut ghosts = FxHashMap::with_capacity_and_hasher(n_ghost, Default::default());
        for (l, &g) in global_ids.iter().enumerate().skip(n_local) {
            ensure!(
                owned.binary_search(&g).is_err() && ghosts.insert(g, l as u32).is_none(),
                "global id {g} is listed twice"
            );
        }
        ensure!(
            neighbor_ranks == ranks_of(&ghost_owner),
            "neighbor_ranks are not the sorted distinct ghost owners"
        );
        Ok(DistGraph {
            rank,
            num_ranks,
            n_local,
            xadj,
            adj,
            weights,
            global_ids,
            ghost_owner,
            is_boundary,
            neighbor_ranks,
            ghosts,
        })
    }

    /// Local index of global vertex `g` on this rank, owned or ghost;
    /// `None` if the rank neither owns nor ghosts it. A ghost is one probe
    /// of a halo-sized table, an owned vertex a binary search of the
    /// ascending owned prefix (ghosts first: most ids a message names
    /// are the sender's vertices).
    #[inline]
    pub fn local(&self, g: VertexId) -> Option<u32> {
        self.ghosts.get(&g).copied().or_else(|| {
            let owned = &self.global_ids[..self.n_local];
            owned.binary_search(&g).ok().map(|l| l as u32)
        })
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

    /// Iterates `(neighbor_local, weight)` of owned vertex `v` (weight 1.0
    /// if unweighted).
    pub fn neighbors_weighted(&self, v: u32) -> impl Iterator<Item = (u32, Weight)> + '_ {
        let lo = self.xadj[v as usize];
        let hi = self.xadj[v as usize + 1];
        let weighted = !self.weights.is_empty();
        (lo..hi).map(move |i| (self.adj[i], if weighted { self.weights[i] } else { 1.0 }))
    }

    /// Number of owned boundary vertices.
    pub(crate) fn num_boundary(&self) -> usize {
        self.is_boundary.iter().filter(|&&b| b).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simple::{block_partition, grid2d_partition, hash_partition};
    use cmg_graph::generators::{grid2d, rmat};
    use cmg_graph::weights::{assign_weights, WeightScheme};

    /// Sanity-checks a set of rank-local graphs against the global graph
    /// they were built from.
    fn validate_distribution(g: &CsrGraph, parts: &[DistGraph]) -> Result<(), String> {
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
            assert_eq!(dg.ghosts.len(), ids.len() - dg.n_local);
            for (l, &v) in ids.iter().enumerate() {
                assert_eq!(dg.local(v), Some(l as u32));
            }
            // Rows keep the global graph's neighbor order and weights.
            for (l, &v) in ids[..dg.n_local].iter().enumerate() {
                let row: Vec<VertexId> = dg
                    .neighbors(l as u32)
                    .iter()
                    .map(|&u| ids[u as usize])
                    .collect();
                assert_eq!(row, g.neighbors(v));
                let weights = if dg.weights.is_empty() {
                    &[][..]
                } else {
                    &dg.weights[dg.xadj[l]..dg.xadj[l + 1]]
                };
                assert_eq!(weights, g.neighbor_weights(v));
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
