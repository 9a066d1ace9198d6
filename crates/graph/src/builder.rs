//! Edge-list accumulator that produces a canonical [`CsrGraph`].
//!
//! Building is a counting sort by row — count, prefix sum, scatter, over
//! two passes of the edges — which leaves every row in the order its
//! edges arrived. Input ordered by (min, max) endpoint, as generators and
//! written-out graphs produce it, therefore yields sorted rows directly;
//! only a row that is not strictly ascending (unordered input, a
//! duplicate) is sorted and has its duplicates collapsed. DESIGN.md §16
//! has the argument.

use crate::{CsrGraph, VertexId, Weight, NO_VERTEX};

/// Accumulates undirected edges and builds a [`CsrGraph`].
///
/// The builder is forgiving: edges may be added in any order and in either
/// orientation, duplicates collapse (keeping the *maximum* weight, which is
/// the natural choice for matching inputs), and self-loops are dropped.
///
/// ```
/// use cmg_graph::GraphBuilder;
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(2, 0, 1.5);
/// b.add_edge(0, 2, 2.5); // duplicate: max weight wins
/// b.add_edge(1, 1, 9.0); // self-loop: ignored
/// let g = b.build();
/// assert_eq!(g.num_edges(), 1);
/// assert_eq!(g.edge_weight(0, 2), Some(2.5));
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    /// `(u, v, w)` as added, self-loops left out.
    edges: Vec<(VertexId, VertexId, Weight)>,
    weighted: bool,
}

impl GraphBuilder {
    /// A builder for a graph on `n` vertices.
    ///
    /// # Panics
    /// Panics if `n` leaves no room for the [`NO_VERTEX`] sentinel.
    pub fn new(n: usize) -> Self {
        assert!(n < NO_VERTEX as usize, "too many vertices");
        GraphBuilder {
            n,
            edges: Vec::new(),
            weighted: false,
        }
    }

    /// A builder with pre-reserved capacity for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        let mut b = Self::new(n);
        b.edges.reserve(m);
        b
    }

    /// Number of vertices the final graph will have.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Adds the weighted undirected edge `{u, v}`. Self-loops are ignored.
    ///
    /// # Panics
    /// Panics if `u` or `v` is out of range.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, w: Weight) {
        self.weighted |= u != v;
        self.push(u, v, w);
    }

    /// Adds an unweighted undirected edge (weight `1.0` if the graph ends up
    /// weighted because other edges carry weights).
    pub fn add_edge_unweighted(&mut self, u: VertexId, v: VertexId) {
        self.push(u, v, 1.0);
    }

    fn push(&mut self, u: VertexId, v: VertexId, w: Weight) {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "vertex out of range"
        );
        if u != v {
            self.edges.push((u, v, w));
        }
    }

    /// Number of edges currently buffered (duplicates not yet collapsed).
    pub fn num_buffered_edges(&self) -> usize {
        self.edges.len()
    }

    /// Builds the canonical CSR graph: sorted adjacency, duplicates
    /// collapsed to max weight, no self-loops.
    pub fn build(self) -> CsrGraph {
        csr_from_edges(self.n, self.weighted, || self.edges.iter().copied())
    }
}

/// The canonical CSR graph of the edges `edges()` yields — the same
/// in-range, loop-free sequence on each of its two calls.
pub(crate) fn csr_from_edges<I>(n: usize, weighted: bool, edges: impl Fn() -> I) -> CsrGraph
where
    I: Iterator<Item = (VertexId, VertexId, Weight)>,
{
    // Degrees are counted two slots up: after the prefix sum
    // `xadj[v + 1]` is the start of row `v` and serves as its write
    // cursor, and after the scatter it is the row's end.
    let mut xadj = vec![0usize; n + 2];
    for (u, v, _) in edges() {
        xadj[u as usize + 2] += 1;
        xadj[v as usize + 2] += 1;
    }
    for i in 2..n + 2 {
        xadj[i] += xadj[i - 1];
    }
    let mut adj = vec![0 as VertexId; xadj[n + 1]];
    let mut weights = vec![0.0; if weighted { adj.len() } else { 0 }];
    for (u, v, w) in edges() {
        for (from, to) in [(u, v), (v, u)] {
            let at = &mut xadj[from as usize + 1];
            adj[*at] = to;
            if weighted {
                weights[*at] = w;
            }
            *at += 1;
        }
    }
    xadj.truncate(n + 1);

    // Keep a strictly ascending row as it lies; sort any other by
    // (neighbor, weight) and keep the last, heaviest entry of each
    // neighbor. Rows move towards the front as earlier ones shrink.
    let mut scratch: Vec<(VertexId, Weight)> = Vec::new();
    let (mut out, mut lo) = (0, 0);
    for v in 0..n {
        let hi = xadj[v + 1];
        if adj[lo..hi].windows(2).all(|w| w[0] < w[1]) {
            if out < lo {
                adj.copy_within(lo..hi, out);
                if weighted {
                    weights.copy_within(lo..hi, out);
                }
            }
            out += hi - lo;
        } else {
            scratch.clear();
            let weight = |i: usize| if weighted { weights[i] } else { 1.0 };
            scratch.extend((lo..hi).map(|i| (adj[i], weight(i))));
            scratch.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
            for (i, &(nbr, w)) in scratch.iter().enumerate() {
                if scratch.get(i + 1).is_some_and(|next| next.0 == nbr) {
                    continue;
                }
                adj[out] = nbr;
                if weighted {
                    weights[out] = w;
                }
                out += 1;
            }
        }
        xadj[v + 1] = out;
        lo = hi;
    }
    adj.truncate(out);
    adj.shrink_to_fit();
    weights.truncate(out);
    weights.shrink_to_fit();
    CsrGraph::from_raw(xadj, adj, weights)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_edges_keep_max_weight() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(1, 0, 1.0);
        b.add_edge(0, 1, 5.0);
        b.add_edge(0, 1, 3.0);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(5.0));
    }

    #[test]
    fn self_loops_dropped() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0, 2.0);
        b.add_edge(0, 1, 1.0);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn unweighted_when_only_unweighted_edges_added() {
        let mut b = GraphBuilder::new(3);
        b.add_edge_unweighted(0, 1);
        b.add_edge_unweighted(1, 2);
        let g = b.build();
        assert!(!g.is_weighted());
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn adjacency_sorted_regardless_of_insertion_order() {
        let mut b = GraphBuilder::new(5);
        for &v in &[4, 2, 3, 1] {
            b.add_edge(0, v, v as Weight);
        }
        let g = b.build();
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
        assert_eq!(g.neighbor_weights(0), &[1.0, 2.0, 3.0, 4.0]);
        g.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "vertex out of range")]
    fn out_of_range_vertex_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2, 1.0);
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new(7).build();
        assert_eq!(g.num_vertices(), 7);
        assert_eq!(g.num_edges(), 0);
    }
}
