//! Halo views: precomputed owned/ghost indexing over a [`DistGraph`].
//!
//! [`HaloView`] lists the boundary vertices and, for each ghost, the
//! owned vertices it touches: the reverse cross-adjacency needed to
//! propagate "this ghost changed" to the owned vertices that care. It is
//! built totally (no partial indexing), from the boundary rows alone:
//! no other row holds a ghost. Its ascending `boundary` list
//! doubles as a dense index of the boundary vertices: `DistMatching`
//! keeps pending proposals for those alone, since only a boundary vertex
//! can be proposed to across a cut edge. Colouring needs no view: the
//! slice's `is_boundary` flags split interior from boundary.
//!
//! The weight order the matching program walks lives in the slice
//! itself: [`sort_rows_by_weight`] sorts each owned row of `adj` (and
//! stored weights with it; drawn ones follow their edge) in place, so
//! the order costs no extra bytes, and sorts a short row (every row of
//! a grid) with a branch-free network, so its cost does not depend on
//! how the weights fall.
//! Neither it nor the halo looks a global id up — everything here is
//! indexed by local index.

use crate::dist::{DistGraph, EdgeWeights, Rank};
use cmg_graph::weights::EdgeUnitRandom;
use cmg_graph::{VertexId, Weight};
use std::ops::Range;

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
    /// [`HaloView::ghost_adj`]; `u32`, since `ghost_adj` holds no more
    /// entries than the slice's `adj`.
    pub ghost_adj_x: Vec<u32>,
    /// Owned neighbors of each ghost (reverse cross-adjacency), grouped
    /// by ghost in ghost-index order.
    pub ghost_adj: Vec<u32>,
}

impl HaloView {
    /// Computes the halo view of `dg`, reading only its boundary rows.
    /// Total: every offset is built by a running sum, so empty ranks and
    /// ghost-free ranks need no special cases.
    pub fn build(dg: &DistGraph) -> Self {
        let n_local = dg.n_local;
        let n_ghost = dg.n_ghost();

        let mut boundary = Vec::with_capacity(dg.num_boundary());
        boundary.extend((0..n_local as u32).filter(|&v| dg.is_boundary[v as usize]));

        // Reverse adjacency for ghosts. A ghost occurs only in boundary
        // rows (`is_boundary` is exactly "has a ghost neighbor"), so only
        // those are scanned: count each ghost's cross edges one slot
        // ahead, prefix-sum into offsets, then fill with each ghost's
        // offset as its cursor, which leaves every offset at its
        // successor's value until the final shift.
        let mut ghost_adj_x = vec![0u32; n_ghost + 1];
        for &v in &boundary {
            for &u in dg.neighbors(v) {
                if u as usize >= n_local {
                    ghost_adj_x[u as usize - n_local + 1] += 1;
                }
            }
        }
        for g in 1..=n_ghost {
            ghost_adj_x[g] += ghost_adj_x[g - 1];
        }
        let mut ghost_adj = vec![0u32; ghost_adj_x[n_ghost] as usize];
        for &v in &boundary {
            for &u in dg.neighbors(v) {
                if u as usize >= n_local {
                    let cursor = &mut ghost_adj_x[u as usize - n_local];
                    ghost_adj[*cursor as usize] = v;
                    *cursor += 1;
                }
            }
        }
        ghost_adj_x.copy_within(..n_ghost, 1);
        ghost_adj_x[0] = 0;

        HaloView {
            n_local,
            n_ghost,
            boundary,
            ghost_adj_x,
            ghost_adj,
        }
    }

    /// Positions in `ghost_adj` of the owned neighbors of ghost `g` (its
    /// local index less `n_local`).
    #[inline]
    pub fn ghost_row(&self, g: usize) -> Range<usize> {
        self.ghost_adj_x[g] as usize..self.ghost_adj_x[g + 1] as usize
    }
}

/// Sorts each owned row of `dg` in place, `adj` and stored weights
/// together (a drawn weight is a function of the edge, so permuting
/// `adj` moves it): neighbors by descending weight (1.0 on an
/// unweighted slice), ties broken by ascending *global* id so every
/// rank orders shared edges identically (the paper's smallest-label
/// tie-break). The key is a total order on a row, so sorting a sorted
/// slice changes nothing.
///
/// A row of at most [`NET_MAX`] entries is sorted by a branch-free
/// sorting network (no comparison can be mispredicted); only a longer
/// row takes a comparison sort, through a buffer allocated when the
/// first such row occurs. Both give the same row: global ids are
/// distinct on a slice, so two entries with equal keys are the same
/// neighbor with the same weight.
pub fn sort_rows_by_weight(dg: &mut DistGraph) {
    let mut long_row: Vec<(Weight, VertexId, u32)> = Vec::new();
    for v in 0..dg.n_local as u32 {
        let row = dg.row(v);
        match row.len() {
            0 | 1 => {}
            2 => sort_short::<2>(dg, v, row, &BATCHER_2),
            3..=4 => sort_short::<4>(dg, v, row, &BATCHER_4),
            5..=8 => sort_short::<8>(dg, v, row, &BATCHER_8),
            9..=NET_MAX => sort_short::<16>(dg, v, row, &BATCHER_16),
            _ => sort_long(dg, v, &mut long_row),
        }
    }
}

/// The longest row [`sort_rows_by_weight`] sorts with a network.
const NET_MAX: usize = 16;

/// Comparators of Batcher's odd–even merge sort on `N` lanes; `M` is
/// their count (1, 5, 19, 63 for 2, 4, 8, 16 lanes), checked at compile
/// time.
const fn batcher<const N: usize, const M: usize>() -> [(u8, u8); M] {
    let mut net = [(0u8, 0u8); M];
    let mut m = 0;
    let mut p = 1;
    while p < N {
        let mut k = p;
        while k >= 1 {
            let mut j = k % p;
            while j + k < N {
                let mut i = 0;
                while i < k && i + j + k < N {
                    if (i + j) / (2 * p) == (i + j + k) / (2 * p) {
                        net[m] = ((i + j) as u8, (i + j + k) as u8);
                        m += 1;
                    }
                    i += 1;
                }
                j += 2 * k;
            }
            k /= 2;
        }
        p *= 2;
    }
    assert!(m == M, "comparator count");
    net
}

const BATCHER_2: [(u8, u8); 1] = batcher::<2, 1>();
const BATCHER_4: [(u8, u8); 5] = batcher::<4, 5>();
const BATCHER_8: [(u8, u8); 19] = batcher::<8, 19>();
const BATCHER_16: [(u8, u8); 63] = batcher::<16, 63>();

/// A row entry's network key, ascending in the row order: the weight
/// mapped to the `u64` whose ascending order is `f64::total_cmp`
/// descending, then the global id, then the lane. The lane makes every
/// real entry sort before the padding (`u128::MAX`), even one of global
/// id `u32::MAX` whose weight is the all-ones −NaN (mapped to
/// `u64::MAX`), and it says where the entry came from.
fn network_key(w: Weight, global: VertexId, lane: usize) -> u128 {
    let bits = w.to_bits();
    // Negative weights keep their bits (larger bits, smaller weight);
    // the other bits of a non-negative weight flip.
    let descending = bits ^ (!(((bits as i64) >> 63) as u64) >> 1);
    (u128::from(descending) << 64) | (u128::from(global) << 32) | lane as u128
}

/// Runs the sorting network `net` over `keys`.
fn run_network<K: Ord + Copy, const N: usize>(keys: &mut [K; N], net: &[(u8, u8)]) {
    for &(i, j) in net {
        let (a, b) = (keys[i as usize], keys[j as usize]);
        keys[i as usize] = a.min(b);
        keys[j as usize] = a.max(b);
    }
}

/// Sorts owned row `v` (at most `N` entries, at `row`) with the network
/// `net` on `N` lanes.
fn sort_short<const N: usize>(dg: &mut DistGraph, v: u32, row: Range<usize>, net: &[(u8, u8)]) {
    let len = row.len();
    let mut adj = [0u32; N];
    adj[..len].copy_from_slice(&dg.adj[row.clone()]);
    let mut weights = [1.0; N];
    match &dg.weights {
        EdgeWeights::Unit => {}
        EdgeWeights::Stored(stored) => weights[..len].copy_from_slice(&stored[row.clone()]),
        EdgeWeights::Drawn(draw) => {
            if sort_drawn(dg, *draw, v, row.clone(), &adj, net) {
                return;
            }
            for (w, i) in weights[..len].iter_mut().zip(row.clone()) {
                *w = dg.edge_weight(v, i);
            }
        }
    }
    let mut keys = [u128::MAX; N];
    for (lane, key) in keys[..len].iter_mut().enumerate() {
        let global = dg.global_ids[adj[lane] as usize];
        *key = network_key(weights[lane], global, lane);
    }
    run_network(&mut keys, net);
    for (i, &key) in row.clone().zip(&keys[..len]) {
        dg.adj[i] = adj[key as u32 as usize];
    }
    if let EdgeWeights::Stored(stored) = &mut dg.weights {
        for (i, &key) in row.zip(&keys[..len]) {
            stored[i] = weights[key as u32 as usize];
        }
    }
}

/// Sorts a drawn row (its entries `adj`) on `u64` keys built straight
/// from [`EdgeUnitRandom::bits`]: the bits' complement, so ascending is
/// descending weight (`of` scales the bits exactly), then the lane. That
/// orders the row as [`network_key`] does unless two entries draw the
/// same bits, where only the global id can break the tie: then it
/// changes nothing and returns `false`.
fn sort_drawn<const N: usize>(
    dg: &mut DistGraph,
    draw: EdgeUnitRandom,
    v: u32,
    row: Range<usize>,
    adj: &[u32; N],
    net: &[(u8, u8)],
) -> bool {
    const LANE_BITS: u32 = 4;
    const _: () = assert!(NET_MAX <= 1 << LANE_BITS);
    const ALL_53: u64 = (1 << 53) - 1;
    let len = row.len();
    let vg = dg.global_ids[v as usize];
    // A real key is below 2^57, so the padding sorts last.
    let mut keys = [u64::MAX; N];
    for (lane, key) in keys[..len].iter_mut().enumerate() {
        let ug = dg.global_ids[adj[lane] as usize];
        let bits = draw.bits(vg.min(ug), vg.max(ug));
        *key = ((ALL_53 ^ bits) << LANE_BITS) | lane as u64;
    }
    run_network(&mut keys, net);
    if keys[..len]
        .windows(2)
        .any(|w| w[0] >> LANE_BITS == w[1] >> LANE_BITS)
    {
        return false;
    }
    for (i, &key) in row.zip(&keys[..len]) {
        dg.adj[i] = adj[(key & ((1 << LANE_BITS) - 1)) as usize];
    }
    true
}

/// Sorts owned row `v` (longer than [`NET_MAX`]) by comparison, through
/// the reused buffer `buf`.
fn sort_long(dg: &mut DistGraph, v: u32, buf: &mut Vec<(Weight, VertexId, u32)>) {
    buf.clear();
    buf.extend(
        dg.neighbors_weighted(v)
            .map(|(u, w)| (w, dg.global_ids[u as usize], u)),
    );
    buf.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    let row = dg.row(v);
    for (i, &(_, _, u)) in row.clone().zip(buf.iter()) {
        dg.adj[i] = u;
    }
    if let EdgeWeights::Stored(weights) = &mut dg.weights {
        for (i, &(w, _, _)) in row.zip(buf.iter()) {
            weights[i] = w;
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
    use cmg_graph::generators::{erdos_renyi, grid2d};
    use cmg_graph::weights::{assign_weights, WeightScheme};
    use cmg_graph::CsrGraph;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

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
                        assert!(
                            halo.ghost_adj[halo.ghost_row(gi)].contains(&v),
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

    /// Every entry's weight bits in `adj` order, however the slice holds
    /// its weights.
    fn weight_bits(dg: &DistGraph) -> Vec<u64> {
        (0..dg.n_local as u32)
            .flat_map(|v| dg.row(v).map(move |i| dg.edge_weight(v, i).to_bits()))
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
            let (adj, weights) = (dg.adj.clone(), weight_bits(&dg));
            let xadj = dg.xadj.clone();
            sort_rows_by_weight(&mut dg);
            assert_eq!((dg.xadj.clone(), dg.adj.clone()), (xadj, adj));
            assert_eq!(weight_bits(&dg), weights);
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
            assert_eq!(dg.weights, EdgeWeights::Unit);
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

    /// The halo view by the full scan it once made: every row's ghost
    /// entries counted and filled in local-index order.
    fn full_scan_halo(dg: &DistGraph) -> HaloView {
        let (n_local, n_ghost) = (dg.n_local, dg.n_ghost());
        let boundary = (0..n_local as u32)
            .filter(|&v| dg.is_boundary[v as usize])
            .collect();
        let mut counts = vec![0usize; n_ghost];
        for &u in &dg.adj {
            if u as usize >= n_local {
                counts[u as usize - n_local] += 1;
            }
        }
        let mut ghost_adj_x = vec![0];
        for c in counts {
            ghost_adj_x.push(ghost_adj_x.last().copied().unwrap_or(0) + c as u32);
        }
        let mut ghost_adj = vec![0u32; ghost_adj_x[n_ghost] as usize];
        let mut cursor: Vec<usize> = ghost_adj_x.iter().map(|&x| x as usize).collect();
        for v in 0..n_local as u32 {
            for &u in dg.neighbors(v) {
                if u as usize >= n_local {
                    let g = u as usize - n_local;
                    ghost_adj[cursor[g]] = v;
                    cursor[g] += 1;
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

    /// Every row sorted by one comparison sort, the way every row once
    /// was: the oracle of the networks.
    fn comparison_sort_rows(dg: &mut DistGraph) {
        let mut row: Vec<(Weight, VertexId, u32)> = Vec::new();
        for v in 0..dg.n_local {
            row.clear();
            row.extend(
                dg.neighbors_weighted(v as u32)
                    .map(|(u, w)| (w, dg.global_ids[u as usize], u)),
            );
            row.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            for (i, &(w, _, u)) in dg.row(v as u32).zip(&row) {
                dg.adj[i] = u;
                if let EdgeWeights::Stored(weights) = &mut dg.weights {
                    weights[i] = w;
                }
            }
        }
    }

    /// Sorts `dg` both ways and checks the bytes agree, then that a
    /// second sort changes nothing.
    fn assert_sorts_like_the_comparison_sort(dg: &DistGraph) {
        let bits = |dg: &DistGraph| (dg.adj.clone(), weight_bits(dg));
        let (mut got, mut want) = (dg.clone(), dg.clone());
        sort_rows_by_weight(&mut got);
        comparison_sort_rows(&mut want);
        assert_eq!(bits(&got), bits(&want), "rank {}", dg.rank);
        sort_rows_by_weight(&mut got);
        assert_eq!(bits(&got), bits(&want), "rank {} resorted", dg.rank);
    }

    /// The all-ones −NaN: the last weight under `total_cmp` descending,
    /// whose network key is the padding's.
    const LAST_NAN: u64 = u64::MAX;

    /// Weights a packed or bit-trick key would most easily order
    /// differently from `total_cmp`, each kept twice so rows tie.
    const TRICKY: [u64; 17] = [
        0,                     // +0.0
        1 << 63,               // -0.0
        0x3FF8_0000_0000_0000, // 1.5
        0xBFF8_0000_0000_0000, // -1.5
        0x000F_FFFF_FFFF_FFFF, // largest subnormal
        0x800F_FFFF_FFFF_FFFF, // its negative
        1,                     // smallest subnormal
        0x8000_0000_0000_0001, // its negative
        0x7FF0_0000_0000_0000, // +inf
        0xFFF0_0000_0000_0000, // -inf
        0x7FF8_0000_0000_0000, // NaN
        0xFFF8_0000_0000_0000, // -NaN
        0x7FF0_0000_0000_0001, // signalling NaN
        0x7FFF_FFFF_FFFF_FFFF, // the all-ones +NaN
        LAST_NAN,
        0x7FEF_FFFF_FFFF_FFFF, // f64::MAX
        0xFFEF_FFFF_FFFF_FFFF, // -f64::MAX
    ];

    /// A slice of rank 0 of 3 built from its fields: one owned row of
    /// each length in `lens` (in that order), `n_ghost` ghosts whose
    /// first has global id `u32::MAX`, entries drawn over every local
    /// index (so rows repeat neighbors) and weights stored from
    /// [`TRICKY`] (`Some(true)`), drawn under `seed` (`Some(false)`) or
    /// none.
    fn tricky_slice(
        lens: &[usize],
        n_ghost: usize,
        weighted: Option<bool>,
        seed: u64,
    ) -> DistGraph {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n_local = lens.len();
        let n_total = n_local + n_ghost;
        let mut global_ids: Vec<VertexId> = (0..n_local as u32).map(|v| 3 * v + 1).collect();
        global_ids.push(VertexId::MAX);
        global_ids.extend((1..n_ghost as u32).map(|g| 3 * g));
        let ghost_owner: Vec<Rank> = (0..n_ghost).map(|_| rng.random_range(1..3)).collect();
        let mut xadj = vec![0];
        let mut adj = Vec::new();
        for &len in lens {
            adj.extend((0..len).map(|_| rng.random_range(0..n_total as u32)));
            xadj.push(adj.len() as u32);
        }
        let weights = match weighted {
            Some(true) => EdgeWeights::Stored(
                (0..adj.len())
                    .map(|_| f64::from_bits(TRICKY[rng.random_range(0..TRICKY.len())]))
                    .collect(),
            ),
            Some(false) => EdgeWeights::Drawn(cmg_graph::weights::EdgeUnitRandom::new(seed)),
            None => EdgeWeights::Unit,
        };
        let is_boundary = (0..n_local)
            .map(|v| {
                adj[xadj[v] as usize..xadj[v + 1] as usize]
                    .iter()
                    .any(|&u| u as usize >= n_local)
            })
            .collect();
        let neighbor_ranks = crate::dist::ranks_of(&ghost_owner);
        DistGraph::from_fields(
            0,
            3,
            n_local,
            xadj,
            adj,
            weights,
            global_ids,
            ghost_owner,
            is_boundary,
            neighbor_ranks,
        )
        .expect("a consistent slice")
    }

    #[test]
    fn a_row_entry_tied_with_the_padding_sorts_before_it() {
        // Every short row holds the ghost of global id `u32::MAX` with
        // the all-ones −NaN weight: the padding's key but for the lane.
        // It must come out last in its row, the row keep its length,
        // and no padding lane leak in.
        let lens: Vec<usize> = (1..=16).collect();
        let mut dg = tricky_slice(&lens, 3, Some(true), 7);
        let ghost = dg.n_local as u32;
        for v in 0..dg.n_local {
            let row = dg.row(v as u32);
            let mid = row.start + row.len() / 2;
            dg.adj[mid] = ghost;
            let EdgeWeights::Stored(weights) = &mut dg.weights else {
                panic!("a tricky slice stores its weights");
            };
            weights[mid] = f64::from_bits(LAST_NAN);
            dg.is_boundary[v] = true;
        }
        assert_sorts_like_the_comparison_sort(&dg);
        sort_rows_by_weight(&mut dg);
        for v in 0..dg.n_local as u32 {
            let last = dg.row(v).end - 1;
            assert_eq!(dg.adj[last], ghost, "row {v}");
            assert_eq!(dg.edge_weight(v, last).to_bits(), LAST_NAN, "row {v}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Rows of every length on both sides of each network size (0
        /// to 17) and one of 40 (the comparison sort), in a random
        /// order, with repeated neighbors and tricky, drawn or no
        /// weights: the bytes equal the comparison sort's.
        #[test]
        fn network_rows_equal_the_comparison_sort(
            seed in any::<u64>(),
            n_ghost in 1usize..6,
            kind in 0usize..3,
        ) {
            let weighted = [Some(true), Some(false), None][kind];
            let mut lens: Vec<usize> = (0..=17).chain([40]).collect();
            lens.shuffle(&mut SmallRng::seed_from_u64(seed ^ 1));
            assert_sorts_like_the_comparison_sort(&tricky_slice(&lens, n_ghost, weighted, seed));
        }

        /// The boundary-only halo build equals the full scan over random
        /// graphs under hash and block partitions (more parts than
        /// vertices leaves ranks empty).
        #[test]
        fn halo_equals_the_full_scan(
            n in 1usize..60,
            density in 0usize..5,
            k in 1u32..9,
            seed in 0u64..10_000,
        ) {
            let g = erdos_renyi(n, n * density, seed);
            for p in [hash_partition(n, k, seed), block_partition(n, k)] {
                for dg in DistGraph::build_all(&g, &p) {
                    prop_assert_eq!(HaloView::build(&dg), full_scan_halo(&dg));
                }
            }
        }
    }
}
