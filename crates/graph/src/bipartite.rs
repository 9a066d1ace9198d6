//! Bipartite graphs (the representation used for Table 1.1: bipartite
//! graphs of sparse matrices, rows on one side, columns on the other).

use crate::{CsrGraph, GraphBuilder, VertexId, Weight};

/// A weighted bipartite graph with `num_left` row-vertices and `num_right`
/// column-vertices. Edges are stored once, from the left side.
#[derive(Clone, Debug)]
pub struct BipartiteGraph {
    num_left: usize,
    num_right: usize,
    xadj: Vec<usize>,
    adj: Vec<VertexId>,
    weights: Vec<Weight>,
}

impl BipartiteGraph {
    /// Builds from an edge list of `(left, right, weight)` triples.
    /// Duplicate `(left, right)` pairs keep the maximum weight.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range.
    pub fn from_edges(
        num_left: usize,
        num_right: usize,
        edges: impl IntoIterator<Item = (VertexId, VertexId, Weight)>,
    ) -> Self {
        let mut list: Vec<(VertexId, VertexId, Weight)> = edges.into_iter().collect();
        for &(l, r, _) in &list {
            assert!((l as usize) < num_left, "left vertex {l} out of range");
            assert!((r as usize) < num_right, "right vertex {r} out of range");
        }
        list.sort_unstable_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)).then(a.2.total_cmp(&b.2)));
        list.dedup_by(|next, kept| {
            if next.0 == kept.0 && next.1 == kept.1 {
                kept.2 = next.2;
                true
            } else {
                false
            }
        });
        let mut xadj = vec![0usize; num_left + 1];
        for &(l, _, _) in &list {
            xadj[l as usize + 1] += 1;
        }
        for i in 0..num_left {
            xadj[i + 1] += xadj[i];
        }
        let mut adj = Vec::with_capacity(list.len());
        let mut weights = Vec::with_capacity(list.len());
        for (_, r, w) in list {
            adj.push(r);
            weights.push(w);
        }
        BipartiteGraph {
            num_left,
            num_right,
            xadj,
            adj,
            weights,
        }
    }

    /// Number of left (row) vertices.
    pub fn num_left(&self) -> usize {
        self.num_left
    }

    /// Number of right (column) vertices.
    pub fn num_right(&self) -> usize {
        self.num_right
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.adj.len()
    }

    /// Right-neighbors of left vertex `l`, sorted.
    pub fn neighbors(&self, l: VertexId) -> &[VertexId] {
        &self.adj[self.xadj[l as usize]..self.xadj[l as usize + 1]]
    }

    /// Iterates `(left, right, weight)` once per edge.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId, Weight)> + '_ {
        (0..self.num_left as VertexId).flat_map(move |l| {
            let lo = self.xadj[l as usize];
            let hi = self.xadj[l as usize + 1];
            (lo..hi).map(move |i| (l, self.adj[i], self.weights[i]))
        })
    }

    /// Converts to a general [`CsrGraph`] on `num_left + num_right`
    /// vertices, right vertices offset by `num_left`. This is the form the
    /// (general-graph) matching algorithms consume.
    pub fn to_general(&self) -> CsrGraph {
        let n = self.num_left + self.num_right;
        let mut b = GraphBuilder::with_capacity(n, self.num_edges());
        for (l, r, w) in self.edges() {
            b.add_edge(l, r + self.num_left as VertexId, w);
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BipartiteGraph {
        BipartiteGraph::from_edges(
            2,
            3,
            vec![(0, 0, 1.0), (0, 2, 4.0), (1, 1, 2.0), (1, 2, 3.0)],
        )
    }

    #[test]
    fn basic_shape() {
        let g = sample();
        assert_eq!(g.num_left(), 2);
        assert_eq!(g.num_right(), 3);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0), &[0, 2]);
        assert_eq!(g.weights[g.xadj[1]..g.xadj[2]], [2.0, 3.0]);
    }

    #[test]
    fn duplicates_keep_max() {
        let g = BipartiteGraph::from_edges(1, 1, vec![(0, 0, 1.0), (0, 0, 7.0)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.weights[g.xadj[0]..g.xadj[1]], [7.0]);
    }

    #[test]
    fn to_general_offsets_right_side() {
        let g = sample().to_general();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.edge_weight(0, 4), Some(4.0)); // (left 0, right 2)
        assert_eq!(g.edge_weight(1, 3), Some(2.0)); // (left 1, right 1)
        g.validate().unwrap();
    }

    #[test]
    fn empty_bipartite() {
        let g = BipartiteGraph::from_edges(0, 0, vec![]);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.to_general().num_vertices(), 0);
    }
}
