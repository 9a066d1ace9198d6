//! A mutable adapter over [`CsrGraph`] for incremental workloads.
//!
//! CSR is the right layout for the algorithms but the wrong one for
//! mutation: inserting one edge into a packed adjacency array shifts
//! everything behind it. [`MutableGraph`] keeps the edge set in
//! per-vertex hash maps (both directions of every edge), applies
//! [`MutationBatch`]es to that index in O(batch), and rebuilds a fresh
//! [`CsrGraph`] on demand — an explicit, O(n + m) step the caller
//! controls, so a serving layer that repairs warm never pays it on the
//! hot path and the recompute path pays it once per batch at most.
//!
//! The vertex set is fixed at construction: mutations address existing
//! vertex ids only (out-of-range ids are rejected, not grown), which
//! keeps every downstream partition and distributed-graph structure
//! addressable across rebuilds.

use crate::util::FxHashMap;
use crate::{CsrGraph, VertexId, Weight};

/// One edge mutation. Endpoints are unordered (the pair is normalized
/// internally); self-loops are invalid.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mutation {
    /// Insert edge `{u, v}` with weight `w`, or overwrite its weight if
    /// it already exists (insert-or-update, like
    /// [`crate::GraphBuilder`]'s duplicate handling).
    Insert {
        /// One endpoint.
        u: VertexId,
        /// The other endpoint.
        v: VertexId,
        /// Edge weight.
        w: Weight,
    },
    /// Delete edge `{u, v}`. Deleting an absent edge is a no-op (the
    /// batch reports it, see [`ApplyOutcome::missing_deletes`]).
    Delete {
        /// One endpoint.
        u: VertexId,
        /// The other endpoint.
        v: VertexId,
    },
    /// Set the weight of existing edge `{u, v}` to `w`. Reweighting an
    /// absent edge inserts it (documented degenerate case — the serving
    /// layer treats both identically).
    Reweight {
        /// One endpoint.
        u: VertexId,
        /// The other endpoint.
        v: VertexId,
        /// New edge weight.
        w: Weight,
    },
}

impl Mutation {
    /// The mutation's endpoints, as given.
    pub fn endpoints(&self) -> (VertexId, VertexId) {
        match *self {
            Mutation::Insert { u, v, .. }
            | Mutation::Delete { u, v }
            | Mutation::Reweight { u, v, .. } => (u, v),
        }
    }
}

/// An ordered batch of mutations, applied atomically by
/// [`MutableGraph::apply`]. Later entries win over earlier ones
/// touching the same edge (map semantics).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MutationBatch {
    /// The mutations, in application order.
    pub ops: Vec<Mutation>,
}

impl MutationBatch {
    /// An empty batch.
    pub fn new() -> Self {
        MutationBatch::default()
    }

    /// Appends an insert-or-update.
    pub fn insert(&mut self, u: VertexId, v: VertexId, w: Weight) -> &mut Self {
        self.ops.push(Mutation::Insert { u, v, w });
        self
    }

    /// Appends a delete.
    pub fn delete(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        self.ops.push(Mutation::Delete { u, v });
        self
    }

    /// Appends a weight update.
    pub fn reweight(&mut self, u: VertexId, v: VertexId, w: Weight) -> &mut Self {
        self.ops.push(Mutation::Reweight { u, v, w });
        self
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// What applying a batch actually changed (feeds dirtiness accounting
/// in callers that repair rather than recompute).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ApplyOutcome {
    /// Edges that did not exist before and do now.
    pub inserted: usize,
    /// Edges removed.
    pub deleted: usize,
    /// Existing edges whose weight changed.
    pub reweighted: usize,
    /// Deletes addressing edges that were not present (no-ops).
    pub missing_deletes: usize,
}

/// A mutable adjacency-map view of a graph with an explicit
/// [`MutableGraph::rebuild`] step back to CSR.
///
/// Both directions of every edge are indexed, so neighbor scans are
/// O(degree) — this is what lets the serving layer's repair kernels
/// run directly against the mutable graph (via
/// [`NeighborView`](crate::view::NeighborView)) without paying an
/// O(V + E) CSR repack per mutation batch.
#[derive(Clone, Debug)]
pub struct MutableGraph {
    /// Per-vertex adjacency: `adj[u][v] = w` and `adj[v][u] = w` for
    /// every undirected edge `{u, v}`.
    adj: Vec<FxHashMap<VertexId, Weight>>,
    /// Undirected edge count (each edge counted once).
    m: usize,
    weighted: bool,
}

impl MutableGraph {
    /// Unpacks `g` into mutable form.
    pub fn from_csr(g: &CsrGraph) -> Self {
        let mut adj: Vec<FxHashMap<VertexId, Weight>> =
            vec![FxHashMap::default(); g.num_vertices()];
        for (u, v, w) in g.edges() {
            adj[u as usize].insert(v, w);
            adj[v as usize].insert(u, w);
        }
        MutableGraph {
            adj,
            m: g.num_edges(),
            weighted: g.is_weighted(),
        }
    }

    /// Number of vertices (fixed for the adapter's lifetime).
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges currently present.
    pub fn num_edges(&self) -> usize {
        self.m
    }

    /// Current degree of `v`.
    pub fn degree(&self, v: VertexId) -> usize {
        self.adj[v as usize].len()
    }

    /// Current weight of edge `{u, v}`, if present.
    pub fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        self.adj[u as usize].get(&v).copied()
    }

    /// Iterates `(neighbor, weight)` pairs of `v`, in arbitrary
    /// (hash) order.
    pub fn neighbors_weighted(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        self.adj[v as usize].iter().map(|(&u, &w)| (u, w))
    }

    /// Validates one mutation against the fixed vertex set.
    fn check(&self, m: &Mutation) -> Result<(), String> {
        let (u, v) = m.endpoints();
        if u == v {
            return Err(format!("self-loop mutation on vertex {u}"));
        }
        let n = self.adj.len();
        if u as usize >= n || v as usize >= n {
            return Err(format!(
                "mutation touches vertex outside the graph: ({u}, {v}) with n = {n}"
            ));
        }
        Ok(())
    }

    /// Applies `batch` in order. The whole batch is validated before
    /// any of it is applied, so a rejected batch leaves the graph
    /// untouched.
    pub fn apply(&mut self, batch: &MutationBatch) -> Result<ApplyOutcome, String> {
        for m in &batch.ops {
            self.check(m)?;
        }
        let mut out = ApplyOutcome::default();
        for m in &batch.ops {
            match *m {
                Mutation::Insert { u, v, w } | Mutation::Reweight { u, v, w } => {
                    match self.adj[u as usize].insert(v, w) {
                        None => {
                            out.inserted += 1;
                            self.m += 1;
                        }
                        Some(old) if old != w => out.reweighted += 1,
                        Some(_) => {}
                    }
                    self.adj[v as usize].insert(u, w);
                }
                Mutation::Delete { u, v } => {
                    if self.adj[u as usize].remove(&v).is_some() {
                        self.adj[v as usize].remove(&u);
                        out.deleted += 1;
                        self.m -= 1;
                    } else {
                        out.missing_deletes += 1;
                    }
                }
            }
        }
        Ok(out)
    }

    /// Packs the current edge set back into CSR form (sorted adjacency
    /// rows, both directions of every edge, weights carried iff the
    /// source graph was weighted).
    pub fn rebuild(&self) -> CsrGraph {
        // Rows are already materialized per vertex; sort each row (hash
        // order is arbitrary, CSR wants sorted neighbors) and pack.
        let n = self.adj.len();
        let mut xadj = vec![0usize; n + 1];
        let mut adj: Vec<VertexId> = Vec::with_capacity(self.m * 2);
        let mut weights: Vec<Weight> = if self.weighted {
            Vec::with_capacity(self.m * 2)
        } else {
            Vec::new()
        };
        let mut row: Vec<(VertexId, Weight)> = Vec::new();
        for u in 0..n {
            row.clear();
            row.extend(self.adj[u].iter().map(|(&v, &w)| (v, w)));
            row.sort_unstable_by_key(|a| a.0);
            xadj[u + 1] = xadj[u] + row.len();
            adj.extend(row.iter().map(|&(v, _)| v));
            if self.weighted {
                weights.extend(row.iter().map(|&(_, w)| w));
            }
        }
        CsrGraph::from_raw(xadj, adj, weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::grid2d;
    use crate::weights::{assign_weights, WeightScheme};
    use crate::GraphBuilder;

    #[test]
    fn round_trip_without_mutations_is_identity() {
        let g = assign_weights(&grid2d(5, 4), WeightScheme::Uniform { lo: 0.0, hi: 1.0 }, 7);
        let m = MutableGraph::from_csr(&g);
        assert_eq!(m.rebuild(), g);
        // Unweighted graphs stay unweighted.
        let u = grid2d(3, 3);
        assert_eq!(MutableGraph::from_csr(&u).rebuild(), u);
    }

    #[test]
    fn insert_delete_reweight_apply_in_order() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 2.0);
        let g = b.build();
        let mut m = MutableGraph::from_csr(&g);

        let mut batch = MutationBatch::new();
        batch
            .insert(2, 3, 5.0)
            .delete(0, 1)
            .reweight(1, 2, 9.0)
            .delete(3, 4); // absent: a counted no-op
        let out = m.apply(&batch).unwrap();
        assert_eq!(
            out,
            ApplyOutcome {
                inserted: 1,
                deleted: 1,
                reweighted: 1,
                missing_deletes: 1,
            }
        );
        let g2 = m.rebuild();
        g2.validate().unwrap();
        assert!(!g2.has_edge(0, 1));
        assert_eq!(g2.edge_weight(1, 2), Some(9.0));
        assert_eq!(g2.edge_weight(2, 3), Some(5.0));
        assert_eq!(g2.num_edges(), 2);
    }

    #[test]
    fn later_ops_win_on_the_same_edge() {
        let g = GraphBuilder::new(3).build();
        let mut m = MutableGraph::from_csr(&g);
        let mut batch = MutationBatch::new();
        batch.insert(0, 1, 1.0).insert(1, 0, 4.0).delete(0, 1);
        m.apply(&batch).unwrap();
        assert_eq!(m.num_edges(), 0);
        let mut batch = MutationBatch::new();
        batch.delete(0, 2).insert(0, 2, 3.0);
        m.apply(&batch).unwrap();
        assert_eq!(m.edge_weight(2, 0), Some(3.0));
    }

    #[test]
    fn invalid_batches_are_rejected_atomically() {
        let g = GraphBuilder::new(3).build();
        let mut m = MutableGraph::from_csr(&g);
        let mut batch = MutationBatch::new();
        batch.insert(0, 1, 1.0).insert(0, 7, 1.0); // 7 out of range
        assert!(m.apply(&batch).is_err());
        assert_eq!(m.num_edges(), 0, "nothing from the bad batch applied");
        let mut loops = MutationBatch::new();
        loops.insert(1, 1, 1.0);
        assert!(m.apply(&loops).is_err());
    }

    #[test]
    fn rebuild_matches_builder_output() {
        // A randomized mutation stream, cross-checked against building
        // the final edge set from scratch.
        let g = assign_weights(&grid2d(6, 6), WeightScheme::Uniform { lo: 0.0, hi: 1.0 }, 3);
        let mut m = MutableGraph::from_csr(&g);
        let mut batch = MutationBatch::new();
        // Deterministic pseudo-random ops.
        let mut s = 0xABCDu64;
        for _ in 0..200 {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = ((s >> 33) % 36) as VertexId;
            let v = ((s >> 17) % 36) as VertexId;
            if u == v {
                continue;
            }
            match s % 3 {
                0 => batch.insert(u, v, (s % 1000) as f64 / 10.0),
                1 => batch.delete(u, v),
                _ => batch.reweight(u, v, (s % 777) as f64 / 7.0),
            };
        }
        m.apply(&batch).unwrap();
        let rebuilt = m.rebuild();
        rebuilt.validate().unwrap();
        let mut b = GraphBuilder::new(36);
        for (u, v, w) in rebuilt.edges() {
            b.add_edge(u, v, w);
        }
        assert_eq!(b.build(), rebuilt);
    }
}
