//! Sequential ½-approximation matching algorithms.
//!
//! All four compute a *maximal* matching whose weight is at least half the
//! optimum; they differ in work, locality, and parallelizability. The
//! candidate-mate algorithm ([`local_dominant`]) is the sequential core of
//! the paper's parallel algorithm (§3.1).

use crate::{MatchFrontier, Matching};
use cmg_graph::{CsrGraph, VertexId, Weight, NO_VERTEX};

/// Greedy matching: sort all edges by decreasing weight (ties: smaller
/// endpoint ids first) and add every edge whose endpoints are both free.
/// `O(m log m)`; the classic ½-approximation (Avis 1983).
pub fn greedy(g: &CsrGraph) -> Matching {
    let mut edges: Vec<(Weight, VertexId, VertexId)> =
        g.edges().map(|(u, v, w)| (w, u, v)).collect();
    edges.sort_unstable_by(|a, b| {
        b.0.total_cmp(&a.0)
            .then_with(|| (a.1, a.2).cmp(&(b.1, b.2)))
    });
    let mut m = Matching::empty(g.num_vertices());
    for (_, u, v) in edges {
        if !m.is_matched(u) && !m.is_matched(v) {
            m.add(u, v);
        }
    }
    m
}

/// Adjacency lists of `g` sorted by decreasing weight (ties: smaller
/// neighbor id — the paper's tie-break: "ties are broken by choosing the
/// neighbor with the smallest label"). Shared by the pointer-based
/// algorithms.
pub(crate) fn weight_sorted_adjacency(g: &CsrGraph) -> (Vec<usize>, Vec<VertexId>, Vec<Weight>) {
    let n = g.num_vertices();
    let mut xadj = Vec::with_capacity(n + 1);
    xadj.push(0usize);
    let mut adj = Vec::with_capacity(2 * g.num_edges());
    let mut wts = Vec::with_capacity(2 * g.num_edges());
    let mut row: Vec<(Weight, VertexId)> = Vec::new();
    for v in 0..n as VertexId {
        row.clear();
        row.extend(g.neighbors_weighted(v).map(|(u, w)| (w, u)));
        row.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        for &(w, u) in &row {
            adj.push(u);
            wts.push(w);
        }
        xadj.push(adj.len());
    }
    (xadj, adj, wts)
}

/// Locally-dominant (candidate-mate) matching — the sequential algorithm
/// of §3.1: every vertex points at its heaviest available neighbor; a
/// mutual pointing is a locally dominant edge and is matched; newly
/// unavailable vertices trigger candidate recomputation through a queue.
///
/// `O(|E| log Δ)` with weight-sorted adjacency lists; expected `O(|E|)`
/// for uniformly-random weights.
pub fn local_dominant(g: &CsrGraph) -> Matching {
    let n = g.num_vertices();
    let (xadj, adj, _wts) = weight_sorted_adjacency(g);
    let mut m = Matching::empty(n);
    // ptr[v]: position of v's candidate mate in its sorted adjacency.
    let mut ptr: Vec<usize> = (0..n).map(|v| xadj[v]).collect();
    let mut candidate = vec![NO_VERTEX; n];
    let mut queue: std::collections::VecDeque<VertexId> = std::collections::VecDeque::new();

    // advance(v): first still-unmatched neighbor in weight order.
    let advance = |v: VertexId, ptr: &mut [usize], m: &Matching| -> VertexId {
        let hi = xadj[v as usize + 1];
        while ptr[v as usize] < hi && m.is_matched(adj[ptr[v as usize]]) {
            ptr[v as usize] += 1;
        }
        if ptr[v as usize] < hi {
            adj[ptr[v as usize]]
        } else {
            NO_VERTEX
        }
    };

    // Initial candidates and initial locally-dominant edges.
    for v in 0..n as VertexId {
        candidate[v as usize] = advance(v, &mut ptr, &m);
    }
    for v in 0..n as VertexId {
        let c = candidate[v as usize];
        if c != NO_VERTEX && !m.is_matched(v) && !m.is_matched(c) && candidate[c as usize] == v {
            m.add(v, c);
            queue.push_back(v);
            queue.push_back(c);
        }
    }

    // Propagate: matched vertices invalidate their neighbors' candidates.
    while let Some(x) = queue.pop_front() {
        for &w in &adj[xadj[x as usize]..xadj[x as usize + 1]] {
            if m.is_matched(w) || candidate[w as usize] != x {
                continue;
            }
            let c = advance(w, &mut ptr, &m);
            candidate[w as usize] = c;
            if c != NO_VERTEX && candidate[c as usize] == w && !m.is_matched(c) {
                m.add(w, c);
                queue.push_back(w);
                queue.push_back(c);
            }
        }
    }
    m
}

/// Path-growing algorithm (Drake–Hougardy): grow vertex-disjoint paths by
/// always following the heaviest incident edge, alternately assigning
/// edges to two matchings; return the heavier of the two, made maximal by
/// a greedy pass. `O(m)` after sorting; ½-approximation.
pub fn path_growing(g: &CsrGraph) -> Matching {
    let n = g.num_vertices();
    let mut used = vec![false; n];
    // Edge sets of the two alternating matchings.
    let mut sets: [Vec<(VertexId, VertexId, Weight)>; 2] = [Vec::new(), Vec::new()];
    for start in 0..n as VertexId {
        if used[start as usize] {
            continue;
        }
        let mut v = start;
        let mut which = 0usize;
        loop {
            used[v as usize] = true;
            // Heaviest edge to an unused vertex (ties: smaller id).
            let mut best: Option<(Weight, VertexId)> = None;
            for (u, w) in g.neighbors_weighted(v) {
                if !used[u as usize] {
                    let better = match best {
                        None => true,
                        Some((bw, bu)) => w > bw || (w == bw && u < bu),
                    };
                    if better {
                        best = Some((w, u));
                    }
                }
            }
            match best {
                Some((w, u)) => {
                    sets[which].push((v, u, w));
                    which ^= 1;
                    v = u;
                }
                None => break,
            }
        }
    }
    let weight_of = |s: &[(VertexId, VertexId, Weight)]| s.iter().map(|e| e.2).sum::<Weight>();
    let pick = if weight_of(&sets[0]) >= weight_of(&sets[1]) {
        0
    } else {
        1
    };
    let mut m = Matching::empty(n);
    for &(u, v, _) in &sets[pick] {
        if !m.is_matched(u) && !m.is_matched(v) {
            m.add(u, v);
        }
    }
    // The winning path-matching may leave augmentable edges; a greedy
    // completion keeps the bound and restores maximality.
    let mut edges: Vec<(Weight, VertexId, VertexId)> =
        g.edges().map(|(u, v, w)| (w, u, v)).collect();
    edges.sort_unstable_by(|a, b| b.0.total_cmp(&a.0));
    for (_, u, v) in edges {
        if !m.is_matched(u) && !m.is_matched(v) {
            m.add(u, v);
        }
    }
    m
}

/// Suitor algorithm (Manne–Halappanavar): every vertex proposes to its
/// best neighbor that does not already hold a better proposal,
/// dethroning weaker suitors. Produces exactly the locally-dominant
/// matching under the total edge order (heavier first, then the smaller
/// endpoint id, then the larger). It is the repair kernel's cold pass
/// ([`MatchFrontier::cold`]), the crate's one suitor loop.
pub fn suitor(g: &CsrGraph) -> Matching {
    let mut mate = vec![NO_VERTEX; g.num_vertices()];
    MatchFrontier::new(g.num_vertices()).cold(g, &mut mate);
    Matching::from_mates(mate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmg_graph::generators::{complete, erdos_renyi, grid2d};
    use cmg_graph::weights::{assign_weights, WeightScheme};
    use cmg_graph::GraphBuilder;

    fn paper_triangle() -> CsrGraph {
        // The Figure 3.1 example: w(u,v)=3, w(u,w)=2, w(v,w)=1.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 3.0);
        b.add_edge(0, 2, 2.0);
        b.add_edge(1, 2, 1.0);
        b.build()
    }

    type AlgList = Vec<(&'static str, fn(&CsrGraph) -> Matching)>;

    fn all_algorithms() -> AlgList {
        vec![
            ("greedy", greedy as fn(&CsrGraph) -> Matching),
            ("local_dominant", local_dominant),
            ("path_growing", path_growing),
            ("suitor", suitor),
        ]
    }

    #[test]
    fn figure31_example_matches_heaviest_edge() {
        let g = paper_triangle();
        for (name, alg) in all_algorithms() {
            let m = alg(&g);
            assert_eq!(m.mate(0), 1, "{name}");
            assert_eq!(m.mate(1), 0, "{name}");
            assert!(!m.is_matched(2), "{name}: w must fail to match");
            m.validate(&g).unwrap();
        }
    }

    #[test]
    fn all_algorithms_valid_and_maximal_on_random_graphs() {
        for seed in 0..5 {
            let g = assign_weights(
                &erdos_renyi(60, 180, seed),
                WeightScheme::Uniform { lo: 0.0, hi: 1.0 },
                seed,
            );
            for (name, alg) in all_algorithms() {
                let m = alg(&g);
                m.validate(&g).unwrap_or_else(|e| panic!("{name}: {e}"));
                assert!(m.is_maximal(&g), "{name} not maximal (seed {seed})");
            }
        }
    }

    #[test]
    fn local_dominant_equals_greedy_weight_on_distinct_weights() {
        // With all-distinct weights, greedy, locally-dominant and suitor
        // produce the same matching edge for edge (all pick globally
        // dominant edges in order).
        for seed in 0..5 {
            let g = assign_weights(
                &erdos_renyi(40, 120, seed),
                WeightScheme::Uniform { lo: 0.0, hi: 1.0 },
                100 + seed,
            );
            let mg = greedy(&g);
            assert_eq!(local_dominant(&g), mg, "seed {seed}");
            assert_eq!(suitor(&g), mg, "seed {seed}");
        }
    }

    #[test]
    fn equal_weights_still_give_valid_maximal_matchings() {
        let g = assign_weights(&complete(9), WeightScheme::Equal(1.0), 0);
        for (name, alg) in all_algorithms() {
            let m = alg(&g);
            m.validate(&g).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(m.is_maximal(&g), "{name}");
            assert_eq!(m.cardinality(), 4, "{name}: complete(9) perfect-ish");
        }
    }

    #[test]
    fn grid_with_random_weights() {
        let g = assign_weights(
            &grid2d(10, 10),
            WeightScheme::Uniform { lo: 0.0, hi: 1.0 },
            5,
        );
        for (name, alg) in all_algorithms() {
            let m = alg(&g);
            m.validate(&g).unwrap();
            assert!(m.is_maximal(&g), "{name}");
            assert!(
                m.cardinality() >= 34,
                "{name}: cardinality {}",
                m.cardinality()
            );
        }
    }

    #[test]
    fn empty_and_single_vertex() {
        let empty = CsrGraph::empty(0);
        let single = CsrGraph::empty(1);
        for (_, alg) in all_algorithms() {
            assert_eq!(alg(&empty).cardinality(), 0);
            assert_eq!(alg(&single).cardinality(), 0);
        }
    }

    #[test]
    fn sorted_adjacency_is_descending() {
        let g = paper_triangle();
        let (xadj, adj, wts) = weight_sorted_adjacency(&g);
        assert_eq!(&adj[xadj[0]..xadj[1]], &[1, 2]);
        assert_eq!(&wts[xadj[0]..xadj[1]], &[3.0, 2.0]);
    }
}
