//! Compressed-sparse-row representation of an undirected graph.

use crate::{VertexId, Weight, NO_VERTEX};

/// An undirected graph in CSR (adjacency-array) form.
///
/// Every undirected edge `{u, v}` is stored twice, once in each endpoint's
/// adjacency list. Adjacency lists are sorted by neighbor id and contain no
/// duplicates or self-loops (enforced by [`crate::GraphBuilder`]).
///
/// Weights are optional: unweighted graphs (e.g. coloring inputs) carry no
/// weight array and report a weight of `1.0` for every edge.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrGraph {
    /// Offsets into `adj`/`weights`; length `n + 1`.
    xadj: Vec<usize>,
    /// Concatenated adjacency lists; length `2m`.
    adj: Vec<VertexId>,
    /// Per-directed-edge weights parallel to `adj`, or empty if unweighted.
    weights: Vec<Weight>,
}

impl CsrGraph {
    /// Builds a graph directly from raw CSR arrays.
    ///
    /// # Panics
    /// Panics if the arrays are inconsistent (`xadj` not monotone, neighbor
    /// ids out of range, weights of the wrong length).
    pub(crate) fn from_raw(xadj: Vec<usize>, adj: Vec<VertexId>, weights: Vec<Weight>) -> Self {
        assert!(!xadj.is_empty(), "xadj must have length n+1 >= 1");
        let n = xadj.len() - 1;
        assert!(n < NO_VERTEX as usize, "too many vertices");
        assert_eq!(xadj.last().copied(), Some(adj.len()), "xadj/adj mismatch");
        assert!(
            weights.is_empty() || weights.len() == adj.len(),
            "weights must be empty or parallel to adj"
        );
        for w in xadj.windows(2) {
            assert!(w[0] <= w[1], "xadj must be non-decreasing");
        }
        for &u in &adj {
            assert!((u as usize) < n, "neighbor id {u} out of range");
        }
        CsrGraph { xadj, adj, weights }
    }

    /// An empty graph with `n` isolated vertices.
    pub fn empty(n: usize) -> Self {
        CsrGraph {
            xadj: vec![0; n + 1],
            adj: Vec::new(),
            weights: Vec::new(),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adj.len() / 2
    }

    /// `true` if the graph carries per-edge weights.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        !self.weights.is_empty()
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.xadj[v as usize + 1] - self.xadj[v as usize]
    }

    /// Sorted neighbor list of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.adj[self.xadj[v as usize]..self.xadj[v as usize + 1]]
    }

    /// Weights parallel to [`Self::neighbors`]; empty slice if unweighted.
    #[inline]
    pub fn neighbor_weights(&self, v: VertexId) -> &[Weight] {
        if self.weights.is_empty() {
            &[]
        } else {
            &self.weights[self.xadj[v as usize]..self.xadj[v as usize + 1]]
        }
    }

    /// Iterates `(neighbor, weight)` pairs of `v` (weight `1.0` if
    /// unweighted).
    pub fn neighbors_weighted(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        let lo = self.xadj[v as usize];
        let hi = self.xadj[v as usize + 1];
        let weighted = !self.weights.is_empty();
        (lo..hi).map(move |i| {
            let w = if weighted { self.weights[i] } else { 1.0 };
            (self.adj[i], w)
        })
    }

    /// Weight of edge `{u, v}`, or `None` if the edge does not exist.
    pub fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        let nbrs = self.neighbors(u);
        let idx = nbrs.binary_search(&v).ok()?;
        Some(if self.weights.is_empty() {
            1.0
        } else {
            self.weights[self.xadj[u as usize] + idx]
        })
    }

    /// `true` if `{u, v}` is an edge.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterates every undirected edge exactly once as `(u, v, w)` with
    /// `u < v` (weight `1.0` if unweighted).
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId, Weight)> + '_ {
        (0..self.num_vertices() as VertexId).flat_map(move |u| {
            self.neighbors_weighted(u)
                .filter(move |&(v, _)| u < v)
                .map(move |(v, w)| (u, v, w))
        })
    }

    /// Maximum vertex degree Δ (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices() as VertexId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Minimum vertex degree (0 for an empty graph).
    pub fn min_degree(&self) -> usize {
        (0..self.num_vertices() as VertexId)
            .map(|v| self.degree(v))
            .min()
            .unwrap_or(0)
    }

    /// Returns a copy of this graph with the given weights installed.
    ///
    /// `f` is invoked once per undirected edge `(u, v)` with `u < v`; both
    /// directed copies receive the same value, keeping the graph symmetric.
    #[allow(clippy::needless_range_loop)] // paired indexing into two arrays
    pub fn with_weights(&self, mut f: impl FnMut(VertexId, VertexId) -> Weight) -> CsrGraph {
        let mut weights = vec![0.0; self.adj.len()];
        for u in 0..self.num_vertices() as VertexId {
            for i in self.xadj[u as usize]..self.xadj[u as usize + 1] {
                let v = self.adj[i];
                if u < v {
                    weights[i] = f(u, v);
                }
            }
        }
        // Mirror the weights onto the reverse directed edges.
        for u in 0..self.num_vertices() as VertexId {
            for i in self.xadj[u as usize]..self.xadj[u as usize + 1] {
                let v = self.adj[i];
                if u > v {
                    match self.neighbors(v).binary_search(&u) {
                        Ok(off) => weights[i] = weights[self.xadj[v as usize] + off],
                        Err(_) => debug_assert!(false, "adjacency not symmetric at ({u},{v})"),
                    }
                }
            }
        }
        CsrGraph {
            xadj: self.xadj.clone(),
            adj: self.adj.clone(),
            weights,
        }
    }

    /// Strips the weights, producing an unweighted copy of the structure.
    pub fn unweighted(&self) -> CsrGraph {
        CsrGraph {
            xadj: self.xadj.clone(),
            adj: self.adj.clone(),
            weights: Vec::new(),
        }
    }

    /// Verifies structural invariants: sorted adjacency, no self-loops, no
    /// duplicates, symmetric edges, symmetric weights. Intended for tests.
    pub fn validate(&self) -> Result<(), String> {
        for u in 0..self.num_vertices() as VertexId {
            let nbrs = self.neighbors(u);
            for w in nbrs.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("adjacency of {u} not strictly sorted"));
                }
            }
            for &v in nbrs {
                if v == u {
                    return Err(format!("self-loop at {u}"));
                }
                if !self.has_edge(v, u) {
                    return Err(format!("edge ({u},{v}) not symmetric"));
                }
                if self.is_weighted() && self.edge_weight(u, v) != self.edge_weight(v, u) {
                    return Err(format!("weight of ({u},{v}) not symmetric"));
                }
            }
        }
        Ok(())
    }

    /// Approximate heap footprint in bytes (for capacity planning in the
    /// scaling harnesses).
    pub fn memory_bytes(&self) -> usize {
        self.xadj.len() * std::mem::size_of::<usize>()
            + self.adj.len() * std::mem::size_of::<VertexId>()
            + self.weights.len() * std::mem::size_of::<Weight>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle() -> CsrGraph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 3.0);
        b.add_edge(0, 2, 2.0);
        b.add_edge(1, 2, 1.0);
        b.build()
    }

    #[test]
    fn basic_accessors() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.edge_weight(0, 1), Some(3.0));
        assert_eq!(g.edge_weight(1, 0), Some(3.0));
        assert_eq!(g.edge_weight(0, 0), None);
        assert!(g.has_edge(2, 1));
        assert!(!g.has_edge(0, 0));
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.min_degree(), 2);
        g.validate().unwrap();
    }

    #[test]
    fn edges_iterates_each_edge_once() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1, 3.0), (0, 2, 2.0), (1, 2, 1.0)]);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        g.validate().unwrap();
    }

    #[test]
    fn zero_vertex_graph() {
        let g = CsrGraph::empty(0);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.edges().count(), 0);
        g.validate().unwrap();
    }

    #[test]
    fn unweighted_graph_reports_unit_weights() {
        let g = triangle().unweighted();
        assert!(!g.is_weighted());
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
        assert_eq!(g.neighbor_weights(0), &[] as &[Weight]);
    }

    #[test]
    fn with_weights_is_symmetric() {
        let g = triangle().unweighted();
        let wg = g.with_weights(|u, v| (u + v) as Weight);
        assert_eq!(wg.edge_weight(0, 2), Some(2.0));
        assert_eq!(wg.edge_weight(2, 0), Some(2.0));
        wg.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "xadj/adj mismatch")]
    fn from_raw_rejects_inconsistent_arrays() {
        CsrGraph::from_raw(vec![0, 2], vec![1], vec![]);
    }

    #[test]
    fn neighbors_weighted_on_unweighted() {
        let g = triangle().unweighted();
        let pairs: Vec<_> = g.neighbors_weighted(1).collect();
        assert_eq!(pairs, vec![(0, 1.0), (2, 1.0)]);
    }
}
