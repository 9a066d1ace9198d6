//! [`NeighborView`]: the adjacency interface repair kernels see.
//!
//! The warm-start invalidation and frontier-repair kernels
//! (cmg-matching, cmg-coloring) only ever ask three questions of a
//! graph — how many vertices, is `{u, v}` an edge and at what weight,
//! and who neighbors `v`. Abstracting those behind a trait lets the
//! kernels run against either representation:
//!
//! * [`CsrGraph`] — the packed form every batch algorithm uses;
//! * [`MutableGraph`] — the serving layer's resident rows: sorted runs
//!   of one slab (neighbour ids and weights in two flat arrays, a
//!   `[start, len, cap]` header per vertex), which absorb mutation
//!   batches in O(batch · degree) *without* repacking.
//!
//! That second impl is the point: a resident service repairing a tiny
//! frontier must not pay an O(V + E) CSR rebuild per batch just to
//! hand the kernels an adjacency. See `DESIGN.md` §13.
//!
//! Neighbor iteration is exposed callback-style (`for_each_neighbor`)
//! rather than as an iterator associated type: both impls stay simple,
//! and the callback is a type parameter, so each kernel's loop body is
//! inlined into the row scan instead of called through a pointer per
//! neighbor. `MutableGraph`'s impl zips the two slices
//! [`MutableGraph::row`] hands out; `CsrGraph`'s zips
//! [`CsrGraph::neighbors`] with [`CsrGraph::neighbor_weights`], or
//! passes unit weights, deciding once per row rather than per entry.
//! Iteration order is implementation-defined — both impls yield
//! neighbors by ascending id today, but kernels must not depend on it
//! for their results.

use crate::{CsrGraph, MutableGraph, VertexId, Weight};

/// Read-only adjacency, weight `1.0` when the graph is unweighted.
pub trait NeighborView {
    /// Number of vertices.
    fn num_vertices(&self) -> usize;

    /// Weight of edge `{u, v}`, or `None` if absent.
    fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight>;

    /// `true` iff `{u, v}` is an edge.
    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.edge_weight(u, v).is_some()
    }

    /// Calls `f(neighbor, weight)` for every neighbor of `v`, in
    /// implementation-defined order.
    fn for_each_neighbor(&self, v: VertexId, f: impl FnMut(VertexId, Weight));
}

impl NeighborView for CsrGraph {
    fn num_vertices(&self) -> usize {
        CsrGraph::num_vertices(self)
    }

    fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        CsrGraph::edge_weight(self, u, v)
    }

    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        CsrGraph::has_edge(self, u, v)
    }

    #[inline]
    fn for_each_neighbor(&self, v: VertexId, mut f: impl FnMut(VertexId, Weight)) {
        let ids = self.neighbors(v);
        if self.is_weighted() {
            for (&u, &w) in ids.iter().zip(self.neighbor_weights(v)) {
                f(u, w);
            }
        } else {
            for &u in ids {
                f(u, 1.0);
            }
        }
    }
}

impl NeighborView for MutableGraph {
    fn num_vertices(&self) -> usize {
        MutableGraph::num_vertices(self)
    }

    fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        MutableGraph::edge_weight(self, u, v)
    }

    fn for_each_neighbor(&self, v: VertexId, mut f: impl FnMut(VertexId, Weight)) {
        let (ids, weights) = self.row(v);
        for (&u, &w) in ids.iter().zip(weights) {
            f(u, w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::grid2d;
    use crate::weights::{assign_weights, WeightScheme};

    /// Both impls answer identically on the same graph, in the same
    /// neighbor order, including the unweighted 1.0 convention.
    #[test]
    fn csr_and_mutable_views_agree() {
        for g in [
            grid2d(6, 5),
            assign_weights(&grid2d(6, 5), WeightScheme::Uniform { lo: 0.1, hi: 1.0 }, 3),
        ] {
            let m = MutableGraph::from_csr(&g);
            assert_eq!(
                NeighborView::num_vertices(&g),
                NeighborView::num_vertices(&m)
            );
            for v in 0..g.num_vertices() as VertexId {
                let mut a: Vec<(VertexId, Weight)> = Vec::new();
                NeighborView::for_each_neighbor(&g, v, |u, w| a.push((u, w)));
                let mut b: Vec<(VertexId, Weight)> = Vec::new();
                NeighborView::for_each_neighbor(&m, v, |u, w| b.push((u, w)));
                assert_eq!(a, b, "neighborhood of {v}");
                for &(u, w) in &a {
                    assert_eq!(NeighborView::edge_weight(&m, v, u), Some(w));
                    assert!(NeighborView::has_edge(&m, u, v));
                }
            }
            assert!(!NeighborView::has_edge(&m, 0, 29));
        }
    }
}
