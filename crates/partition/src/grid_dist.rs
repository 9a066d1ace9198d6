//! Implicit distributed construction of 5-point grid graphs.
//!
//! §5.1 of the paper: "The grid graphs were generated in parallel,
//! distributed in a two-dimensional fashion among the available
//! processors. Each processor owns a subgraph corresponding to an
//! appropriate portion of the grid." This module does exactly that: it
//! builds every rank's [`DistGraph`] analytically from the grid geometry,
//! never materializing the global graph — which is what makes the
//! paper-scale weak-scaling inputs fit in one host's memory.
//!
//! A rank is one row-major pass over its block, with no lookups: an
//! in-block neighbor's local index is its offset in the block, and an
//! out-of-block one is a ghost, numbered when the scan meets it. A cell
//! outside the block touches at most one cell inside it (the stencil has
//! no diagonals), so the scan meets each ghost exactly once, in the order
//! [`DistGraph::build_all`] discovers it. Every buffer is allocated once at
//! its final size; the only hash table is the slice's ghost table.
//!
//! A weighted slice stores no weights: they are
//! [`EdgeWeights::Drawn`], hashed from the edge's global ids when a
//! reader asks, so a rank holds 32 B less per owned vertex.
//!
//! Against `DistGraph::build_all(assign_weights(grid2d(..)),
//! grid2d_partition(..))` the construction is field for field the same
//! but for the weights' representation (verified by tests): the same
//! rows, ghost discovery order and owners, and every entry's drawn
//! weight has the stored one's bits.

use crate::dist::{strictly_ascending, DistGraph, EdgeWeights, Rank};
use cmg_graph::util::FxHashMap;
use cmg_graph::weights::EdgeUnitRandom;
use cmg_graph::VertexId;

/// Block boundaries used by `grid2d_partition`: index range owned by block
/// `b` out of `nb` blocks over `n` items.
fn block_range(n: usize, nb: u32, b: u32) -> (usize, usize) {
    let per = n.div_ceil(nb as usize).max(1);
    let lo = (b as usize * per).min(n);
    let hi = if b == nb - 1 {
        n
    } else {
        ((b as usize + 1) * per).min(n)
    };
    (lo, hi)
}

/// Builds all ranks' local graphs of a `rows × cols` 5-point grid
/// distributed over a `pr × pc` processor grid, with uniform-random edge
/// weights in `[0, 1)` drawn deterministically from `weight_seed` (pass
/// `None` for an unweighted grid, as the coloring experiments use).
///
/// Equivalent to — but far cheaper than — building the global
/// [`cmg_graph::generators::grid2d`] graph, weighting it with
/// [`cmg_graph::weights::assign_weights`], and distributing it with
/// [`DistGraph::build_all`] under
/// [`crate::simple::grid2d_partition`].
pub fn grid2d_dist(
    rows: usize,
    cols: usize,
    pr: u32,
    pc: u32,
    weight_seed: Option<u64>,
) -> Vec<DistGraph> {
    assert!(pr > 0 && pc > 0);
    let num_ranks = pr * pc;
    (0..num_ranks)
        .map(|rank| build_rank(rows, cols, pr, pc, rank, weight_seed))
        .collect()
}

/// Builds one rank's local graph (see [`grid2d_dist`]); usable on its own
/// for truly rank-local construction.
///
/// # Panics
/// Panics if the block's rows could hold more than `u32::MAX` entries.
pub fn build_rank(
    rows: usize,
    cols: usize,
    pr: u32,
    pc: u32,
    rank: Rank,
    weight_seed: Option<u64>,
) -> DistGraph {
    let (bi, bj) = (rank / pc, rank % pc);
    let (r0, r1) = block_range(rows, pr, bi);
    let (c0, c1) = block_range(cols, pc, bj);
    let w = c1 - c0;
    let n_local = (r1 - r0) * w;
    let id = |i: usize, j: usize| (i * cols + j) as VertexId;
    // The halo: the rows above and below the block and the columns left
    // and right of it, where the grid has them; an empty block has none.
    // Blocks run empty only past the grid's far end, so every halo cell
    // lies in the adjacent block: its owner is one step away in `rank`.
    // The sides N, W, E, S the halo has:
    let sides = [r0 > 0, c0 > 0, c1 < cols, r1 < rows].map(|side| side && n_local > 0);
    let [has_n, has_w, has_e, has_s] = sides.map(usize::from);
    let n_ghost = w * (has_n + has_s) + (r1 - r0) * (has_w + has_e);

    let mut global_ids: Vec<VertexId> = Vec::with_capacity(n_local + n_ghost);
    global_ids.extend((r0..r1).flat_map(|i| (c0..c1).map(move |j| id(i, j))));
    let mut ghost_owner: Vec<Rank> = Vec::with_capacity(n_ghost);
    let mut ghosts = FxHashMap::with_capacity_and_hasher(n_ghost, Default::default());
    assert!(
        u32::try_from(4 * n_local).is_ok(),
        "{n_local} owned vertices on rank {rank}, past u32 offsets"
    );
    let mut xadj = Vec::with_capacity(n_local + 1);
    xadj.push(0u32);
    let mut adj = Vec::with_capacity(4 * n_local);
    let mut is_boundary = vec![false; n_local];
    // One step N, W, E, S (ascending global id) as offsets of the global
    // id, the local index and the owner rank.
    let (dv, dl, dr) = (cols as i64, w as i64, i64::from(pc));
    let [north, west, east, south] = [(-dv, -dl, -dr), (-1, -1, -1), (1, 1, 1), (dv, dl, dr)];
    // The halo's owners, ascending: the blocks one step away on its
    // sides, counted first so the list has its exact size.
    let mut neighbor_ranks = Vec::with_capacity(sides.iter().filter(|&&side| side).count());
    neighbor_ranks.extend(
        sides
            .iter()
            .zip([north, west, east, south])
            .filter(|&(&side, _)| side)
            .map(|(_, (_, _, sr))| (i64::from(rank) + sr) as Rank),
    );
    for i in r0..r1 {
        for j in c0..c1 {
            let v = id(i, j);
            let vl = (i - r0) * w + (j - c0);
            // (in the grid, in the block, step) per neighbor.
            let nbrs = [
                (i > 0, i > r0, north),
                (j > 0, j > c0, west),
                (j + 1 < cols, j + 1 < c1, east),
                (i + 1 < rows, i + 1 < r1, south),
            ];
            for (in_grid, in_block, (sv, sl, sr)) in nbrs {
                if !in_grid {
                    continue;
                }
                let u = (i64::from(v) + sv) as VertexId;
                if in_block {
                    adj.push((vl as i64 + sl) as u32);
                } else {
                    let gl = global_ids.len() as u32;
                    let first_meeting = ghosts.insert(u, gl).is_none();
                    debug_assert!(first_meeting, "ghost {u} has two owned neighbors");
                    global_ids.push(u);
                    ghost_owner.push((i64::from(rank) + sr) as Rank);
                    adj.push(gl);
                    is_boundary[vl] = true;
                }
            }
            xadj.push(adj.len() as u32);
        }
    }
    debug_assert_eq!(ghost_owner.len(), n_ghost);
    debug_assert!(strictly_ascending(&global_ids[..n_local]));

    DistGraph {
        rank,
        num_ranks: pr * pc,
        n_local,
        xadj,
        adj,
        weights: weight_seed.map_or(EdgeWeights::Unit, |seed| {
            EdgeWeights::Drawn(EdgeUnitRandom::new(seed))
        }),
        global_ids,
        neighbor_ranks,
        ghost_owner,
        is_boundary,
        ghosts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::halo::sort_rows_by_weight;
    use crate::simple::grid2d_partition;
    use cmg_graph::generators::grid2d;
    use cmg_graph::weights::{assign_weights, WeightScheme};
    use proptest::prelude::*;

    fn explicit(rows: usize, cols: usize, pr: u32, pc: u32, seed: Option<u64>) -> Vec<DistGraph> {
        let g = grid2d(rows, cols);
        let g = match seed {
            Some(s) => assign_weights(&g, WeightScheme::Uniform { lo: 0.0, hi: 1.0 }, s),
            None => g,
        };
        DistGraph::build_all(&g, &grid2d_partition(rows, cols, pr, pc))
    }

    /// Every owned row of `dg` as `(neighbour, weight bits)` pairs in
    /// stored order (bits, so that equal means the same `f64`).
    fn weighted_rows(dg: &DistGraph) -> Vec<Vec<(u32, u64)>> {
        (0..dg.n_local as u32)
            .map(|v| {
                dg.neighbors_weighted(v)
                    .map(|(u, w)| (u, w.to_bits()))
                    .collect()
            })
            .collect()
    }

    /// `dg` with its weights dropped: what must equal field for field.
    fn unweighted(dg: &DistGraph) -> DistGraph {
        DistGraph {
            weights: EdgeWeights::Unit,
            ..dg.clone()
        }
    }

    proptest! {
        /// The geometry build equals the explicit one: field for field
        /// but for the weights, which it draws where the explicit build
        /// stores them, and every row's `(neighbour, weight bits)` before
        /// and after the weight sort. Uneven and 1-wide blocks, more
        /// block-rows or -columns than the grid has (empty blocks),
        /// weighted and unweighted.
        #[test]
        fn matches_explicit_construction(
            rows in 1usize..14,
            cols in 1usize..14,
            pr in 1u32..6,
            pc in 1u32..6,
            weighted in any::<bool>(),
            seed in 0u64..1_000,
        ) {
            let seed = weighted.then_some(seed);
            let parts = grid2d_dist(rows, cols, pr, pc, seed);
            // `PartialEq` sees no capacity: the neighbour list must hold
            // no slot beyond its ranks.
            for dg in &parts {
                prop_assert!(dg.neighbor_ranks.capacity() <= dg.neighbor_ranks.len());
            }
            let want = explicit(rows, cols, pr, pc, seed);
            prop_assert_eq!(parts.len(), want.len());
            for (mut got, mut want) in parts.into_iter().zip(want) {
                let at = format!("rank {} of {}x{} on {}x{}, seed {:?}", got.rank, rows, cols, pr, pc, seed);
                prop_assert_eq!(unweighted(&got), unweighted(&want), "{}", at);
                match seed {
                    Some(s) => prop_assert_eq!(&got.weights, &EdgeWeights::Drawn(EdgeUnitRandom::new(s))),
                    None => prop_assert_eq!(&got.weights, &EdgeWeights::Unit),
                }
                prop_assert_eq!(weighted_rows(&got), weighted_rows(&want), "{}", at);
                sort_rows_by_weight(&mut got);
                sort_rows_by_weight(&mut want);
                prop_assert_eq!(&got.adj, &want.adj, "{} sorted", at);
                prop_assert_eq!(weighted_rows(&got), weighted_rows(&want), "{} sorted", at);
            }
        }
    }

    #[test]
    fn single_rank_has_everything() {
        let parts = grid2d_dist(6, 6, 1, 1, None);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].n_local, 36);
        assert_eq!(parts[0].n_ghost(), 0);
    }

    #[test]
    fn rank_local_build_matches_batch() {
        let all = grid2d_dist(12, 12, 2, 2, Some(7));
        for rank in 0..4u32 {
            let one = build_rank(12, 12, 2, 2, rank, Some(7));
            assert_eq!(one, all[rank as usize]);
        }
    }
}
