//! A mutable adapter over [`CsrGraph`] for incremental workloads.
//!
//! CSR is the right layout for the algorithms but the wrong one for
//! mutation: inserting one edge into a packed adjacency array shifts
//! everything behind it. [`MutableGraph`] keeps each vertex's row (both
//! directions of every edge) in a vector of its own, sorted by neighbour
//! id, applies [`MutationBatch`]es in O(batch · degree), and rebuilds a
//! fresh [`CsrGraph`] on demand by concatenating the rows — an explicit,
//! O(n + m) step the caller controls, so a serving layer that repairs
//! warm never pays it on the hot path and the recompute path pays it
//! once per batch at most.
//!
//! The vertex set is fixed at construction: mutations address existing
//! vertex ids only (out-of-range ids are rejected, not grown), which
//! keeps every downstream partition and distributed-graph structure
//! addressable across rebuilds.

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

/// A mutable sorted-row view of a graph with an explicit
/// [`MutableGraph::rebuild`] step back to CSR.
///
/// Both directions of every edge are stored, so neighbor scans are
/// O(degree) — this is what lets the serving layer's repair kernels
/// run directly against the mutable graph (via
/// [`NeighborView`](crate::view::NeighborView)) without paying an
/// O(V + E) CSR repack per mutation batch.
#[derive(Clone, Debug)]
pub struct MutableGraph {
    /// Rows sorted by neighbour id, no duplicates: `(v, w)` in row `u`
    /// and `(u, w)` in row `v` for every undirected edge `{u, v}`.
    adj: Vec<Vec<(VertexId, Weight)>>,
    /// Undirected edge count (each edge counted once).
    m: usize,
    weighted: bool,
}

impl MutableGraph {
    /// Unpacks `g` into mutable form.
    pub fn from_csr(g: &CsrGraph) -> Self {
        MutableGraph {
            adj: (0..g.num_vertices() as VertexId)
                .map(|v| {
                    // Room for a few inserts before the row reallocates.
                    let mut row = Vec::with_capacity(g.degree(v) + 2);
                    row.extend(g.neighbors_weighted(v));
                    row
                })
                .collect(),
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

    /// Current weight of edge `{u, v}`, if present.
    pub fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        let row = &self.adj[u as usize];
        row.binary_search_by_key(&v, |e| e.0).ok().map(|i| row[i].1)
    }

    /// Iterates `(neighbor, weight)` pairs of `v` by ascending neighbor
    /// id (CSR order).
    pub fn neighbors_weighted(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        self.adj[v as usize].iter().copied()
    }

    /// Sets `(v, w)` in row `u`; the weight it replaced, if `v` was there.
    fn upsert(&mut self, u: VertexId, v: VertexId, w: Weight) -> Option<Weight> {
        let row = &mut self.adj[u as usize];
        match row.binary_search_by_key(&v, |e| e.0) {
            Ok(i) => Some(std::mem::replace(&mut row[i].1, w)),
            Err(i) => {
                row.insert(i, (v, w));
                None
            }
        }
    }

    /// Takes `v` out of row `u`; whether it was there.
    fn remove(&mut self, u: VertexId, v: VertexId) -> bool {
        let row = &mut self.adj[u as usize];
        row.binary_search_by_key(&v, |e| e.0)
            .map(|i| row.remove(i))
            .is_ok()
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
                    match self.upsert(u, v, w) {
                        None => {
                            out.inserted += 1;
                            self.m += 1;
                        }
                        Some(old) if old != w => out.reweighted += 1,
                        Some(_) => {}
                    }
                    self.upsert(v, u, w);
                }
                Mutation::Delete { u, v } => {
                    if self.remove(u, v) {
                        self.remove(v, u);
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
        // The rows are CSR rows already: concatenate them.
        let mut xadj = Vec::with_capacity(self.adj.len() + 1);
        xadj.push(0);
        let mut adj: Vec<VertexId> = Vec::with_capacity(self.m * 2);
        let mut weights: Vec<Weight> =
            Vec::with_capacity(if self.weighted { self.m * 2 } else { 0 });
        for row in &self.adj {
            xadj.push(xadj[xadj.len() - 1] + row.len());
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
    use std::collections::BTreeMap;

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

    /// Every row sorted by neighbour id with no duplicates, both
    /// directions of every edge present with equal weights, and the row
    /// lengths adding up to twice `num_edges`.
    fn assert_rows_sound(m: &MutableGraph) {
        let mut entries = 0;
        for (u, row) in (0..).zip(&m.adj) {
            assert!(
                row.windows(2).all(|p| p[0].0 < p[1].0),
                "row {u} is not strictly sorted: {row:?}"
            );
            for &(v, w) in row {
                assert_eq!(m.edge_weight(v, u), Some(w), "edge {u}-{v} is one-sided");
            }
            entries += row.len();
        }
        assert_eq!(entries, 2 * m.num_edges());
    }

    #[test]
    fn rebuild_matches_builder_output() {
        // Randomized mutation streams, cross-checked against building
        // the final edge set, kept in an ordered map, from scratch: one
        // spread over the graph, and
        // one where every op has an endpoint among four hubs, so rows
        // grow past their headroom and shrink again.
        let g = assign_weights(&grid2d(6, 6), WeightScheme::Uniform { lo: 0.0, hi: 1.0 }, 3);
        for hubs in [None, Some(4)] {
            let mut m = MutableGraph::from_csr(&g);
            let mut model: BTreeMap<(VertexId, VertexId), Weight> =
                g.edges().map(|(u, v, w)| ((u, v), w)).collect();
            // Deterministic pseudo-random ops.
            let mut s = 0xABCDu64;
            for _ in 0..8 {
                let mut batch = MutationBatch::new();
                for _ in 0..200 {
                    s = s
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let u = ((s >> 33) % hubs.unwrap_or(36)) as VertexId;
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
                assert_rows_sound(&m);
                for op in &batch.ops {
                    let (u, v) = op.endpoints();
                    match *op {
                        Mutation::Delete { .. } => model.remove(&(u.min(v), u.max(v))),
                        Mutation::Insert { w, .. } | Mutation::Reweight { w, .. } => {
                            model.insert((u.min(v), u.max(v)), w)
                        }
                    };
                }
            }
            if hubs.is_some() {
                assert!(m.adj[..4].iter().any(|row| row.len() > 10), "no hub grew");
            }
            let rebuilt = m.rebuild();
            rebuilt.validate().unwrap();
            assert_eq!(rebuilt.num_edges(), m.num_edges());
            let mut b = GraphBuilder::new(36);
            for (&(u, v), &w) in &model {
                b.add_edge(u, v, w);
            }
            assert_eq!(b.build(), rebuilt);
            assert_eq!(MutableGraph::from_csr(&rebuilt).rebuild(), rebuilt);
        }
    }

    /// What a one-op batch costs at a hub, where a sorted row shifts
    /// O(degree) entries: inserts of absent edges at the 16 highest-degree
    /// vertices of RMAT-15 (rows grow), deletes of the same edges, and the
    /// same inserts again (capacity in place); median microseconds per
    /// op over 7 repetitions.
    #[test]
    #[ignore = "timing probe: cargo test --release -p cmg-graph --lib -- --ignored hub --nocapture"]
    fn hub_mutation_cost() {
        use crate::generators::rmat;
        use std::time::Instant;
        let g = assign_weights(
            &rmat(15, 8, (0.57, 0.19, 0.19, 0.05), 1),
            WeightScheme::Uniform { lo: 0.0, hi: 1.0 },
            1,
        );
        let n = g.num_vertices() as u64;
        let mut hubs: Vec<VertexId> = (0..n as VertexId).collect();
        hubs.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
        hubs.truncate(16);
        let mut inserts = Vec::new();
        let mut deletes = Vec::new();
        for &h in &hubs {
            for i in 0..64u64 {
                let v = ((h as u64 * 7919 + i * 104_729) % n) as VertexId;
                if v != h && !g.has_edge(h, v) && !hubs.contains(&v) {
                    let mut batch = MutationBatch::new();
                    batch.insert(h, v, 0.5);
                    inserts.push(batch);
                    let mut batch = MutationBatch::new();
                    batch.delete(h, v);
                    deletes.push(batch);
                }
            }
        }
        let per_op = |m: &mut MutableGraph, batches: &[MutationBatch]| {
            let t = Instant::now();
            for batch in batches {
                m.apply(batch).unwrap();
            }
            t.elapsed().as_secs_f64() * 1e6 / batches.len() as f64
        };
        let mut us = [Vec::new(), Vec::new(), Vec::new()];
        for _ in 0..7 {
            let mut m = MutableGraph::from_csr(&g);
            for (op, batches) in us.iter_mut().zip([&inserts, &deletes, &inserts]) {
                op.push(per_op(&mut m, batches));
            }
            assert_eq!(m.num_edges(), g.num_edges() + inserts.len());
        }
        for op in &mut us {
            op.sort_by(f64::total_cmp);
        }
        println!(
            "hub degrees {}..{}, {} ops each: insert {:.3}, delete {:.3}, \
             insert again {:.3} us/op (median of 7)",
            g.degree(hubs[15]),
            g.degree(hubs[0]),
            inserts.len(),
            us[0][3],
            us[1][3],
            us[2][3]
        );
    }
}
