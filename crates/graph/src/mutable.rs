//! A mutable adapter over [`CsrGraph`] for incremental workloads.
//!
//! CSR is the right layout for the algorithms but the wrong one for
//! mutation: inserting one edge into a packed adjacency array shifts
//! everything behind it. [`MutableGraph`] keeps each vertex's row (both
//! directions of every edge), sorted by neighbour id, as a run of slots in
//! one slab: two flat arrays, ids and weights, and a `[start, len, cap]`
//! header per vertex. A batch applies in O(batch · degree); a full row moves
//! to the slab's end, and the holes moves leave are compacted away.
//! [`MutableGraph::rebuild`] packs a fresh [`CsrGraph`] on demand — an
//! explicit, O(n + m) step a serving layer never pays on the hot path.
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
    /// The slab, ids and weights in parallel: row `u` is
    /// `start..start + len` of `rows[u] = [start, len, cap]`, strictly
    /// ascending, and owns `cap` slots from `start`; `(v, w)` in row `u`
    /// and `(u, w)` in row `v` for every undirected edge `{u, v}`.
    ids: Vec<VertexId>,
    weights: Vec<Weight>,
    rows: Vec<[u32; 3]>,
    /// Slots no row owns: the old places of rows that moved.
    holes: usize,
    /// Undirected edge count (each edge counted once).
    m: usize,
    weighted: bool,
}

/// The header of a row owning `cap` slots from `start`, `len` live.
fn header(start: usize, len: usize, cap: usize) -> [u32; 3] {
    assert!(
        u32::try_from(start + cap).is_ok(),
        "the slab outgrew u32 slot offsets"
    );
    [start as u32, len as u32, cap as u32]
}

impl MutableGraph {
    /// Unpacks `g` into mutable form: one slab of `degree + 2` slots
    /// per row, so a few inserts land before a row has to move.
    pub fn from_csr(g: &CsrGraph) -> Self {
        let n = g.num_vertices();
        let slots = 2 * g.num_edges() + 2 * n;
        let mut ids = Vec::with_capacity(slots);
        let mut weights = Vec::with_capacity(slots);
        let mut rows = Vec::with_capacity(n);
        for v in 0..n as VertexId {
            let (start, len) = (ids.len(), g.degree(v));
            rows.push(header(start, len, len + 2));
            ids.extend_from_slice(g.neighbors(v));
            weights.extend_from_slice(g.neighbor_weights(v));
            ids.resize(start + len + 2, 0);
            weights.resize(start + len + 2, 1.0);
        }
        MutableGraph {
            ids,
            weights,
            rows,
            holes: 0,
            m: g.num_edges(),
            weighted: g.is_weighted(),
        }
    }

    /// Number of vertices (fixed for the adapter's lifetime).
    pub fn num_vertices(&self) -> usize {
        self.rows.len()
    }

    /// Number of undirected edges currently present.
    pub fn num_edges(&self) -> usize {
        self.m
    }

    /// Row `v` as slices of the slab: its neighbour ids, strictly
    /// ascending, and their weights (`1.0` from an unweighted source).
    pub fn row(&self, v: VertexId) -> (&[VertexId], &[Weight]) {
        let [start, len, _] = self.rows[v as usize].map(|x| x as usize);
        let at = start..start + len;
        (&self.ids[at.clone()], &self.weights[at])
    }

    /// Current weight of edge `{u, v}`, if present.
    pub fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        let (ids, weights) = self.row(u);
        ids.binary_search(&v).ok().map(|i| weights[i])
    }

    /// Iterates `(neighbor, weight)` pairs of `v` by ascending neighbor
    /// id (CSR order).
    pub fn neighbors_weighted(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        let (ids, weights) = self.row(v);
        ids.iter().copied().zip(weights.iter().copied())
    }

    /// Sets `(v, w)` in row `u`; the weight it replaced, if `v` was there.
    fn upsert(&mut self, u: VertexId, v: VertexId, w: Weight) -> Option<Weight> {
        let [start, len, cap] = self.rows[u as usize];
        let i = match self.row(u).0.binary_search(&v) {
            Ok(i) => return Some(std::mem::replace(&mut self.weights[start as usize + i], w)),
            Err(i) => i,
        };
        if len == cap {
            self.relocate(u);
        }
        let start = self.rows[u as usize][0] as usize;
        let (at, end) = (start + i, start + len as usize);
        self.ids.copy_within(at..end, at + 1);
        self.weights.copy_within(at..end, at + 1);
        (self.ids[at], self.weights[at]) = (v, w);
        self.rows[u as usize][1] += 1;
        None
    }

    /// Takes `v` out of row `u`; whether it was there.
    fn remove(&mut self, u: VertexId, v: VertexId) -> bool {
        let Ok(i) = self.row(u).0.binary_search(&v) else {
            return false;
        };
        let [start, len, _] = self.rows[u as usize].map(|x| x as usize);
        let (at, end) = (start + i, start + len);
        self.ids.copy_within(at + 1..end, at);
        self.weights.copy_within(at + 1..end, at);
        self.rows[u as usize][1] -= 1;
        true
    }

    /// Moves full row `u` to the slab's end with twice its slots, which
    /// allocates only if the slab is out of capacity; the old slots are holes.
    fn relocate(&mut self, u: VertexId) {
        let [start, len, cap] = self.rows[u as usize].map(|x| x as usize);
        let (from, to) = (start..start + len, self.ids.len());
        self.ids.extend_from_within(from.clone());
        self.weights.extend_from_within(from);
        self.ids.resize(to + 2 * cap, 0);
        self.weights.resize(to + 2 * cap, 0.0);
        self.rows[u as usize] = header(to, len, 2 * cap);
        self.holes += cap;
        if self.holes > 2 * self.m + self.rows.len() {
            self.compact();
        }
    }

    /// Copies the rows, in vertex order, into a fresh slab. A row keeps
    /// its slots unless it has more than `4 · len + 4`; then it gets
    /// `2 · len + 2`, so its next move takes `len + 3` inserts. Each hole
    /// is paid for by ≤ 2 inserts (or the load): amortised O(1) each.
    fn compact(&mut self) {
        let owned = self.ids.len() - self.holes;
        let (mut ids, mut weights) = (Vec::with_capacity(2 * owned), Vec::with_capacity(2 * owned));
        for row in &mut self.rows {
            let [start, len, cap] = row.map(|x| x as usize);
            let keep = if cap > 4 * len + 4 { 2 * len + 2 } else { cap };
            *row = header(ids.len(), len, keep);
            ids.extend_from_slice(&self.ids[start..start + keep]);
            weights.extend_from_slice(&self.weights[start..start + keep]);
        }
        (self.ids, self.weights, self.holes) = (ids, weights, 0);
    }

    /// Validates one mutation against the fixed vertex set.
    fn check(&self, m: &Mutation) -> Result<(), String> {
        let (u, v) = m.endpoints();
        if u == v {
            return Err(format!("self-loop mutation on vertex {u}"));
        }
        let n = self.rows.len();
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
        let mut xadj = Vec::with_capacity(self.rows.len() + 1);
        xadj.push(0);
        let mut adj: Vec<VertexId> = Vec::with_capacity(self.m * 2);
        let mut weights: Vec<Weight> =
            Vec::with_capacity(if self.weighted { self.m * 2 } else { 0 });
        for v in 0..self.rows.len() as VertexId {
            let (ids, ws) = self.row(v);
            xadj.push(xadj[xadj.len() - 1] + ids.len());
            adj.extend_from_slice(ids);
            if self.weighted {
                weights.extend_from_slice(ws);
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
    /// lengths adding up to twice `num_edges`; in the slab, every row
    /// inside its own slots, those runs disjoint, and the holes exactly
    /// the slots no row owns.
    fn assert_rows_sound(m: &MutableGraph) {
        let mut entries = 0;
        for u in 0..m.num_vertices() as VertexId {
            let (ids, weights) = m.row(u);
            assert_eq!(ids.len(), weights.len());
            assert!(
                ids.windows(2).all(|p| p[0] < p[1]),
                "row {u} is not strictly sorted: {ids:?}"
            );
            for (&v, &w) in ids.iter().zip(weights) {
                assert_eq!(m.edge_weight(v, u), Some(w), "edge {u}-{v} is one-sided");
            }
            entries += ids.len();
        }
        assert_eq!(entries, 2 * m.num_edges());
        let mut runs: Vec<[u32; 3]> = m.rows.clone();
        runs.sort_unstable();
        for (i, &[start, len, cap]) in runs.iter().enumerate() {
            assert!(len <= cap, "a row overflows its slots: {runs:?}");
            let next = runs.get(i + 1).map_or(m.ids.len(), |r| r[0] as usize);
            assert!((start + cap) as usize <= next, "rows overlap: {runs:?}");
        }
        let owned: usize = m.rows.iter().map(|r| r[2] as usize).sum();
        assert_eq!(owned + m.holes, m.ids.len());
        assert_eq!(m.ids.len(), m.weights.len());
    }

    #[test]
    fn rebuild_matches_builder_output() {
        // Randomized mutation streams, cross-checked against building
        // the final edge set, kept in an ordered map, from scratch: one
        // spread over the graph, and one where every op of a batch has an
        // endpoint among four hubs, a different four each batch, so rows
        // grow past their headroom and shrink again. Both move rows, and
        // the holes the moves leave force at least one compaction.
        let g = assign_weights(&grid2d(6, 6), WeightScheme::Uniform { lo: 0.0, hi: 1.0 }, 3);
        for hubs in [None, Some(4)] {
            let mut m = MutableGraph::from_csr(&g);
            let mut model: BTreeMap<(VertexId, VertexId), Weight> =
                g.edges().map(|(u, v, w)| ((u, v), w)).collect();
            // Deterministic pseudo-random ops.
            let mut s = 0xABCDu64;
            let (mut moves, mut compactions) = (0, 0);
            for round in 0..8u64 {
                let mut batch = MutationBatch::new();
                for _ in 0..200 {
                    s = s
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let u = match hubs {
                        None => (s >> 33) % 36,
                        Some(h) => ((s >> 33) % h + h * round) % 36,
                    } as VertexId;
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
                let (len, holes) = (m.ids.len(), m.holes);
                m.apply(&batch).unwrap();
                assert_rows_sound(&m);
                // Every move grows the slab by twice the holes it leaves;
                // only a compaction breaks that.
                let grown = m.ids.len() as isize - len as isize;
                let compacted = grown != 2 * (m.holes as isize - holes as isize);
                moves += (grown != 0) as usize;
                compactions += compacted as usize;
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
                assert!((0..4).any(|h| m.row(h).0.len() > 10), "no hub grew");
            }
            assert!(
                moves > 0 && compactions > 0,
                "{hubs:?}: {moves} batches moved rows, {compactions} compacted"
            );
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
