//! The distributed ½-approximation matching algorithm (§3 of the paper).
//!
//! Each rank runs [`DistMatching`] over its piece of the distributed graph.
//! The algorithm maintains, per vertex, a *candidate mate* — the heaviest
//! still-available neighbor — and matches an edge exactly when the two
//! endpoints point at each other (a locally dominant edge). Three message
//! types flow across cross edges:
//!
//! * `REQUEST` — "my candidate mate is you" (a matching proposal);
//! * `SUCCEEDED` — "I matched elsewhere; stop considering me";
//! * `FAILED` — "I can never be matched; stop considering me".
//!
//! The paper's structure is preserved: an **inner loop** (the local queue)
//! processes interior consequences of every event without communication;
//! the **outer loop** (engine rounds) exchanges bundled messages for the
//! boundary vertices. At least two and at most three messages cross any
//! cross edge, but bundling packs all same-destination messages of a round
//! into one wire packet.

use crate::Matching;
use cmg_graph::{VertexId, Weight, NO_VERTEX};
use cmg_partition::{weight_sorted_csr, DistGraph, HaloView};
use cmg_runtime::{wire_codec, Rank, RankCtx, RankProgram, Status};
use std::collections::VecDeque;

/// Local-index sentinel.
const NONE: u32 = u32::MAX;

/// Per-round message counters feeding [`cmg_obs::Event::MatchRound`].
#[derive(Clone, Copy, Default, Debug)]
struct RoundCounts {
    requests: u64,
    succeeded: u64,
    failed: u64,
}

/// Per-vertex availability from this rank's point of view.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum VState {
    /// Still available for matching.
    Free,
    /// Matched (to anyone).
    Matched,
    /// Can never be matched (all neighbors taken).
    Failed,
}

impl VState {
    fn to_u8(self) -> u8 {
        match self {
            VState::Free => 0,
            VState::Matched => 1,
            VState::Failed => 2,
        }
    }

    fn from_u8(b: u8) -> VState {
        match b {
            1 => VState::Matched,
            2 => VState::Failed,
            _ => VState::Free,
        }
    }
}

wire_codec! {
    /// The three wire messages of §3.2, each carrying the global ids of the
    /// edge endpoints (`from` = sender's vertex, `to` = addressee's vertex).
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum MatchMsg {
        /// Matching proposal across edge `(from, to)`.
        0 => Request {
            /// Proposing vertex (sender side).
            from: VertexId,
            /// Proposed-to vertex (receiver side).
            to: VertexId,
        },
        /// `from` has been matched and is no longer available.
        1 => Succeeded {
            /// Newly matched vertex (sender side).
            from: VertexId,
            /// Neighbor being informed (receiver side).
            to: VertexId,
        },
        /// `from` cannot be matched at all.
        2 => Failed {
            /// Failed vertex (sender side).
            from: VertexId,
            /// Neighbor being informed (receiver side).
            to: VertexId,
        },
    }
}

wire_codec! {
    /// Snapshot records of [`DistMatching`]: the algorithm state minus
    /// everything [`DistMatching::new`] rebuilds from the graph (the
    /// weight-sorted adjacency and the halo view). One `Vertex` record
    /// per owned vertex in local-index order, then sparse records for
    /// non-default ghost states, pending proposals, queued indices, and
    /// the round's message tallies.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum MatchSnap {
        /// Per-owned-vertex state, emitted for every `v` in `0..n_local`
        /// order (the record's position in the stream is the vertex).
        0 => Vertex {
            /// Candidate-mate cursor into the weight-sorted adjacency.
            ptr: u64,
            /// Availability ([`VState`] as `u8`).
            state: u8,
            /// Mate global id (`NO_VERTEX` while unmatched).
            mate: VertexId,
            /// Candidate mate local index (`NONE` if exhausted).
            candidate: u32,
        },
        /// A ghost whose availability is no longer `Free`.
        1 => Ghost {
            /// Ghost local index.
            idx: u32,
            /// Availability ([`VState`] as `u8`).
            state: u8,
        },
        /// A pending remote proposal in `r_set[v]`, in stored order.
        2 => Proposal {
            /// Proposed-to owned vertex (local index).
            v: u32,
            /// Proposing requester (local index of the ghost).
            requester: u32,
        },
        /// An entry of the inner-loop queue, in queue order.
        3 => Queued {
            /// Queued local index.
            idx: u32,
        },
        /// The round's message tallies (observability counters).
        4 => Counts {
            /// REQUESTs sent so far this round.
            requests: u64,
            /// SUCCEEDEDs sent so far this round.
            succeeded: u64,
            /// FAILEDs sent so far this round.
            failed: u64,
        },
    }
}

/// One rank's state of the distributed matching algorithm.
pub struct DistMatching {
    dg: DistGraph,
    /// Weight-sorted adjacency (descending weight, ascending global id —
    /// the smallest-label tie-break) over owned vertices.
    sxadj: Vec<usize>,
    sadj: Vec<u32>,
    /// Cursor into `sadj` per owned vertex: the candidate-mate pointer.
    ptr: Vec<usize>,
    /// Availability per local index (owned + ghost).
    state: Vec<VState>,
    /// Mate (global id) per owned vertex; `NO_VERTEX` while unmatched.
    mate: Vec<VertexId>,
    /// Candidate mate (local index) per owned vertex; `NONE` if exhausted.
    candidate: Vec<u32>,
    /// Pending remote proposals (requester local idxs) per *boundary*
    /// vertex, parallel to `halo.boundary`: a REQUEST crosses a cut edge,
    /// so only a boundary vertex can receive one.
    r_set: Vec<Vec<u32>>,
    /// Halo structure: the ghost reverse cross-adjacency lives here.
    halo: HaloView,
    /// Inner-loop queue of newly unavailable local indices.
    queue: VecDeque<u32>,
    /// Messages sent this round, by type (observability only).
    counts: RoundCounts,
}

impl DistMatching {
    /// Prepares the program for one rank of a distributed (weighted) graph.
    pub fn new(dg: DistGraph) -> Self {
        let n_local = dg.n_local;
        let n_total = dg.n_total();

        // Weight-sorted adjacency (ties broken by ascending *global* id so
        // every rank orders shared edges identically) and the ghost
        // reverse cross-adjacency both come precomputed from the
        // partition layer.
        let (sxadj, sadj) = weight_sorted_csr(&dg);
        let halo = HaloView::build(&dg);

        DistMatching {
            ptr: sxadj[..n_local].to_vec(),
            sxadj,
            sadj,
            state: vec![VState::Free; n_total],
            mate: vec![NO_VERTEX; n_local],
            candidate: vec![NONE; n_local],
            r_set: vec![Vec::new(); halo.boundary.len()],
            halo,
            queue: VecDeque::new(),
            counts: RoundCounts::default(),
            dg,
        }
    }

    /// Builds a **warm** program from a globally consistent retained
    /// view: `global_mate[g]` is vertex `g`'s retained partner
    /// (`NO_VERTEX` = unmatched) and `active[g]` marks the frontier the
    /// warm run re-decides. Retained pairs come up `Matched` (owned and
    /// ghost alike — every rank reseeds from the same view, so ghost
    /// states agree without catch-up messages), inactive unmatched
    /// vertices come up `Failed`, the frontier stays `Free`. The
    /// ordinary protocol then resolves just the frontier; see
    /// [`crate::repair`].
    pub(crate) fn reseed_from(dg: DistGraph, global_mate: &[VertexId], active: &[bool]) -> Self {
        let mut p = DistMatching::new(dg);
        for i in 0..p.state.len() {
            let g = p.dg.global_ids[i] as usize;
            if global_mate[g] != NO_VERTEX {
                p.state[i] = VState::Matched;
                if i < p.dg.n_local {
                    p.mate[i] = global_mate[g];
                }
            } else if !active[g] {
                p.state[i] = VState::Failed;
            }
        }
        p
    }

    /// Emits the round's REQUEST/SUCCEEDED/FAILED tallies as a
    /// [`cmg_obs::Event::MatchRound`] and resets them. Free when no
    /// recorder is attached.
    fn emit_round_counts(&mut self, ctx: &RankCtx<MatchMsg>) {
        let c = std::mem::take(&mut self.counts);
        if ctx.observed() {
            ctx.emit(cmg_obs::Event::MatchRound {
                round: ctx.round() as u32,
                requests: c.requests,
                succeeded: c.succeeded,
                failed: c.failed,
            });
        }
    }

    /// Final mates of the owned vertices, as `(global vertex, global mate)`
    /// pairs (`NO_VERTEX` mate = unmatched).
    pub fn local_mates(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.dg.n_local).map(|v| (self.dg.global_ids[v], self.mate[v]))
    }

    /// Access to the underlying distributed graph.
    pub fn dist_graph(&self) -> &DistGraph {
        &self.dg
    }

    /// `true` once every owned vertex has left the `Free` state (matched
    /// or failed) — the per-rank quiescence condition. A rank that goes
    /// `Idle` while this is `false` has dropped protocol work on the
    /// floor; the `cmg-check` termination oracle asserts it after every
    /// run.
    pub fn is_resolved(&self) -> bool {
        (0..self.dg.n_local).all(|v| self.state[v] != VState::Free)
    }

    /// This rank's contribution to the global matching weight: each
    /// matched edge is counted exactly once, by the owner of its
    /// smaller-id endpoint — so summing over all ranks gives the total
    /// weight without materializing the global graph.
    pub fn local_matched_weight(&self) -> Weight {
        let mut total = 0.0;
        for v in 0..self.dg.n_local as u32 {
            let m = self.mate[v as usize];
            let vg = self.dg.global_ids[v as usize];
            if m != NO_VERTEX && vg < m {
                // A mate is always a neighbor (the protocol only ever
                // matches across an adjacency entry): find it in the row
                // by global id, no lookup needed.
                let mut row = self.dg.neighbors_weighted(v);
                if let Some((_, w)) = row.find(|&(u, _)| self.dg.global_ids[u as usize] == m) {
                    total += w;
                }
            }
        }
        total
    }

    /// This rank's contribution to the global matching cardinality
    /// (counted like [`Self::local_matched_weight`]).
    pub fn local_matched_edges(&self) -> usize {
        (0..self.dg.n_local as u32)
            .filter(|&v| {
                let m = self.mate[v as usize];
                m != NO_VERTEX && self.dg.global_ids[v as usize] < m
            })
            .count()
    }

    /// Owned vertex `v`'s slot in `r_set`; `None` for an interior vertex.
    #[inline]
    fn r_slot(&self, v: u32) -> Option<usize> {
        if self.dg.is_boundary[v as usize] {
            self.halo.boundary.binary_search(&v).ok()
        } else {
            None
        }
    }

    /// Drops the pending proposals of owned vertex `v`.
    fn clear_proposals(&mut self, v: u32) {
        if let Some(s) = self.r_slot(v) {
            self.r_set[s].clear();
        }
    }

    /// Advances `v`'s pointer past unavailable neighbors; returns the new
    /// candidate (local index) or `NONE`.
    fn advance(&mut self, v: u32, ctx: &mut RankCtx<MatchMsg>) -> u32 {
        let hi = self.sxadj[v as usize + 1];
        let mut steps = 1u64;
        while self.ptr[v as usize] < hi
            && self.state[self.sadj[self.ptr[v as usize]] as usize] != VState::Free
        {
            self.ptr[v as usize] += 1;
            steps += 1;
        }
        ctx.charge(steps);
        if self.ptr[v as usize] < hi {
            self.sadj[self.ptr[v as usize]]
        } else {
            NONE
        }
    }

    /// (Re)computes `v`'s candidate mate and acts on it: mutual-candidate
    /// matches, REQUESTs to ghosts, or failure.
    fn recompute(&mut self, v: u32, ctx: &mut RankCtx<MatchMsg>) {
        debug_assert_eq!(self.state[v as usize], VState::Free);
        let c = self.advance(v, ctx);
        self.candidate[v as usize] = c;
        if c == NONE {
            self.fail(v, ctx);
            return;
        }
        if !self.dg.is_ghost(c) {
            // Local candidate: locally dominant iff mutual.
            if self.candidate[c as usize] == v {
                self.match_pair(v, c, ctx);
            }
        } else {
            // Ghost candidate: propose across the cross edge.
            self.counts.requests += 1;
            ctx.send(
                self.dg.owner(c),
                &MatchMsg::Request {
                    from: self.dg.global_ids[v as usize],
                    to: self.dg.global_ids[c as usize],
                },
            );
            // A proposal may already be waiting from that very neighbor.
            if self.r_slot(v).is_some_and(|s| self.r_set[s].contains(&c)) {
                self.match_pair(v, c, ctx);
            }
        }
    }

    /// Matches owned vertex `v` with local index `c` (owned or ghost).
    fn match_pair(&mut self, v: u32, c: u32, ctx: &mut RankCtx<MatchMsg>) {
        debug_assert_eq!(self.state[v as usize], VState::Free);
        debug_assert_eq!(self.state[c as usize], VState::Free);
        self.state[v as usize] = VState::Matched;
        self.state[c as usize] = VState::Matched;
        self.mate[v as usize] = self.dg.global_ids[c as usize];
        self.clear_proposals(v);
        self.announce_matched(v, c, ctx);
        self.queue.push_back(v);
        self.queue.push_back(c);
        if !self.dg.is_ghost(c) {
            self.mate[c as usize] = self.dg.global_ids[v as usize];
            self.clear_proposals(c);
            self.announce_matched(c, v, ctx);
        }
    }

    /// Sends SUCCEEDED for owned vertex `v` to every ghost neighbor except
    /// its mate `m`.
    fn announce_matched(&mut self, v: u32, m: u32, ctx: &mut RankCtx<MatchMsg>) {
        let vg = self.dg.global_ids[v as usize];
        for i in self.sxadj[v as usize]..self.sxadj[v as usize + 1] {
            let u = self.sadj[i];
            if u != m && self.dg.is_ghost(u) && self.state[u as usize] == VState::Free {
                ctx.charge(1);
                self.counts.succeeded += 1;
                ctx.send(
                    self.dg.owner(u),
                    &MatchMsg::Succeeded {
                        from: vg,
                        to: self.dg.global_ids[u as usize],
                    },
                );
            }
        }
    }

    /// Marks owned vertex `v` unmatchable and notifies ghost neighbors.
    fn fail(&mut self, v: u32, ctx: &mut RankCtx<MatchMsg>) {
        self.state[v as usize] = VState::Failed;
        self.clear_proposals(v);
        let vg = self.dg.global_ids[v as usize];
        for i in self.sxadj[v as usize]..self.sxadj[v as usize + 1] {
            let u = self.sadj[i];
            if self.dg.is_ghost(u) && self.state[u as usize] == VState::Free {
                ctx.charge(1);
                self.counts.failed += 1;
                ctx.send(
                    self.dg.owner(u),
                    &MatchMsg::Failed {
                        from: vg,
                        to: self.dg.global_ids[u as usize],
                    },
                );
            }
        }
        self.queue.push_back(v);
    }

    /// Inner loop: drains the queue of newly unavailable vertices,
    /// recomputing the candidates of affected Free owned neighbors — all
    /// without communication (messages are only *buffered* for the round's
    /// bundles).
    fn drain_queue(&mut self, ctx: &mut RankCtx<MatchMsg>) {
        while let Some(x) = self.queue.pop_front() {
            let n_local = self.dg.n_local;
            if (x as usize) < n_local {
                let (lo, hi) = (self.sxadj[x as usize], self.sxadj[x as usize + 1]);
                for i in lo..hi {
                    let w = self.sadj[i];
                    ctx.charge(1);
                    if (w as usize) < n_local
                        && self.state[w as usize] == VState::Free
                        && self.candidate[w as usize] == x
                    {
                        self.recompute(w, ctx);
                    }
                }
            } else {
                let gi = x as usize - n_local;
                let (lo, hi) = (self.halo.ghost_adj_x[gi], self.halo.ghost_adj_x[gi + 1]);
                for i in lo..hi {
                    let w = self.halo.ghost_adj[i];
                    ctx.charge(1);
                    if self.state[w as usize] == VState::Free && self.candidate[w as usize] == x {
                        self.recompute(w, ctx);
                    }
                }
            }
        }
    }

    /// Handles one incoming message.
    fn handle(&mut self, msg: MatchMsg, ctx: &mut RankCtx<MatchMsg>) {
        ctx.charge(1);
        match msg {
            MatchMsg::Request { from, to } => {
                // Both ids are known in a valid run; drop a message
                // naming a vertex this rank does not hold.
                let (Some(v), Some(u)) = (self.dg.local(to), self.dg.local(from)) else {
                    return;
                };
                debug_assert!(!self.dg.is_ghost(v));
                if self.state[v as usize] != VState::Free {
                    // Our SUCCEEDED/FAILED already crossed this REQUEST.
                    return;
                }
                if self.candidate[v as usize] == u {
                    self.match_pair(v, u, ctx);
                    self.drain_queue(ctx);
                } else if let Some(s) = self.r_slot(v) {
                    self.r_set[s].push(u);
                }
            }
            MatchMsg::Succeeded { from, to: _ } | MatchMsg::Failed { from, to: _ } => {
                let Some(u) = self.dg.local(from) else {
                    return;
                };
                debug_assert!(self.dg.is_ghost(u));
                if self.state[u as usize] == VState::Free {
                    self.state[u as usize] = match msg {
                        MatchMsg::Succeeded { .. } => VState::Matched,
                        _ => VState::Failed,
                    };
                    self.queue.push_back(u);
                    self.drain_queue(ctx);
                }
            }
        }
    }
}

impl RankProgram for DistMatching {
    type Msg = MatchMsg;
    type Snapshot = Vec<MatchSnap>;
    type Meta = DistGraph;

    fn snapshot(&self) -> Vec<MatchSnap> {
        let n_local = self.dg.n_local;
        let mut recs = Vec::with_capacity(n_local + self.queue.len() + 1);
        for v in 0..n_local {
            recs.push(MatchSnap::Vertex {
                ptr: self.ptr[v] as u64,
                state: self.state[v].to_u8(),
                mate: self.mate[v],
                candidate: self.candidate[v],
            });
        }
        for g in n_local..self.state.len() {
            if self.state[g] != VState::Free {
                recs.push(MatchSnap::Ghost {
                    idx: g as u32,
                    state: self.state[g].to_u8(),
                });
            }
        }
        for (&v, requesters) in self.halo.boundary.iter().zip(&self.r_set) {
            for &requester in requesters {
                recs.push(MatchSnap::Proposal { v, requester });
            }
        }
        for &idx in &self.queue {
            recs.push(MatchSnap::Queued { idx });
        }
        let c = self.counts;
        if c.requests != 0 || c.succeeded != 0 || c.failed != 0 {
            recs.push(MatchSnap::Counts {
                requests: c.requests,
                succeeded: c.succeeded,
                failed: c.failed,
            });
        }
        recs
    }

    fn restore(meta: DistGraph, snap: Vec<MatchSnap>) -> Self {
        let mut p = DistMatching::new(meta);
        let mut next_vertex = 0usize;
        for rec in snap {
            match rec {
                MatchSnap::Vertex {
                    ptr,
                    state,
                    mate,
                    candidate,
                } => {
                    let v = next_vertex;
                    next_vertex += 1;
                    p.ptr[v] = ptr as usize;
                    p.state[v] = VState::from_u8(state);
                    p.mate[v] = mate;
                    p.candidate[v] = candidate;
                }
                MatchSnap::Ghost { idx, state } => p.state[idx as usize] = VState::from_u8(state),
                MatchSnap::Proposal { v, requester } => {
                    if let Some(s) = p.r_slot(v) {
                        p.r_set[s].push(requester);
                    }
                }
                MatchSnap::Queued { idx } => p.queue.push_back(idx),
                MatchSnap::Counts {
                    requests,
                    succeeded,
                    failed,
                } => {
                    p.counts = RoundCounts {
                        requests,
                        succeeded,
                        failed,
                    };
                }
            }
        }
        debug_assert_eq!(next_vertex, p.dg.n_local, "snapshot/graph mismatch");
        p
    }

    fn meta(&self) -> DistGraph {
        self.dg.clone()
    }

    fn on_start(&mut self, ctx: &mut RankCtx<MatchMsg>) -> Status {
        // Initial candidates for every still-free owned vertex (on a
        // cold start that is all of them; a warm reseed skips the
        // retained pairs and known-unmatchable vertices)…
        for v in 0..self.dg.n_local as u32 {
            if self.state[v as usize] == VState::Free {
                self.candidate[v as usize] = self.advance(v, ctx);
            }
        }
        // …then find the initial locally dominant edges and proposals.
        for v in 0..self.dg.n_local as u32 {
            if self.state[v as usize] != VState::Free {
                continue;
            }
            let c = self.candidate[v as usize];
            if c == NONE {
                self.fail(v, ctx); // isolated vertex
            } else if !self.dg.is_ghost(c) {
                if self.candidate[c as usize] == v && (c as usize) > (v as usize) {
                    self.match_pair(v, c, ctx);
                }
            } else {
                self.counts.requests += 1;
                ctx.send(
                    self.dg.owner(c),
                    &MatchMsg::Request {
                        from: self.dg.global_ids[v as usize],
                        to: self.dg.global_ids[c as usize],
                    },
                );
            }
        }
        self.drain_queue(ctx);
        self.emit_round_counts(ctx);
        Status::Idle
    }

    fn on_round(
        &mut self,
        inbox: &mut Vec<(Rank, Vec<MatchMsg>)>,
        ctx: &mut RankCtx<MatchMsg>,
    ) -> Status {
        for (_, msgs) in inbox.drain(..) {
            for msg in msgs {
                self.handle(msg, ctx);
            }
        }
        self.drain_queue(ctx);
        self.emit_round_counts(ctx);
        Status::Idle
    }
}

/// Assembles the global matching from finished rank programs, verifying
/// cross-rank agreement on every matched edge.
///
/// # Panics
/// Panics if two ranks disagree about a matched pair (would indicate a
/// protocol bug).
pub fn assemble_matching(programs: &[DistMatching], num_vertices: usize) -> Matching {
    let mut mate = vec![NO_VERTEX; num_vertices];
    for p in programs {
        for (v, m) in p.local_mates() {
            mate[v as usize] = m;
        }
    }
    for v in 0..num_vertices as VertexId {
        let m = mate[v as usize];
        assert!(
            m == NO_VERTEX || mate[m as usize] == v,
            "ranks disagree: mate[{v}]={m} but mate[{m}]={}",
            mate[m as usize]
        );
    }
    Matching::from_mates(mate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;
    use cmg_graph::generators::{complete, erdos_renyi, grid2d};
    use cmg_graph::weights::{assign_weights, WeightScheme};
    use cmg_graph::CsrGraph;
    use cmg_partition::simple::{block_partition, hash_partition};
    use cmg_partition::Partition;
    use cmg_runtime::{CostModel, EngineConfig, SimEngine};

    fn free_config() -> EngineConfig {
        EngineConfig {
            cost: CostModel::compute_only(),
            ..Default::default()
        }
    }

    fn run_dist(g: &CsrGraph, partition: &Partition) -> (Matching, cmg_runtime::RunStats) {
        let parts = DistGraph::build_all(g, partition);
        let programs: Vec<DistMatching> = parts.into_iter().map(DistMatching::new).collect();
        let result = SimEngine::new(programs, free_config()).run();
        assert!(!result.hit_round_cap, "matching did not quiesce");
        (
            assemble_matching(&result.programs, g.num_vertices()),
            result.stats,
        )
    }

    #[test]
    fn message_codec_round_trip() {
        use cmg_runtime::WireMessage;
        let msgs = [
            MatchMsg::Request { from: 1, to: 2 },
            MatchMsg::Succeeded { from: 3, to: 4 },
            MatchMsg::Failed { from: 5, to: 6 },
        ];
        let mut buf = bytes::BytesMut::new();
        for m in &msgs {
            m.encode(&mut buf);
        }
        let decoded: Vec<MatchMsg> = cmg_runtime::message::decode_all(buf.freeze()).unwrap();
        assert_eq!(decoded, msgs);
    }

    #[test]
    fn figure31_example_one_vertex_per_rank() {
        // The paper's illustration: triangle with w(u,v)=3, w(u,w)=2,
        // w(v,w)=1, one vertex per processor.
        let mut b = cmg_graph::GraphBuilder::new(3);
        b.add_edge(0, 1, 3.0);
        b.add_edge(0, 2, 2.0);
        b.add_edge(1, 2, 1.0);
        let g = b.build();
        let p = Partition::new(vec![0, 1, 2], 3);
        let (m, stats) = run_dist(&g, &p);
        assert_eq!(m.mate(0), 1);
        assert_eq!(m.mate(1), 0);
        assert!(!m.is_matched(2));
        // §3.2: at least two and at most three messages per edge.
        let msgs = stats.total_messages();
        assert!((6..=9).contains(&msgs), "messages: {msgs}");
    }

    #[test]
    fn matches_sequential_on_distinct_weights() {
        for seed in 0..6 {
            let g = assign_weights(
                &erdos_renyi(80, 240, seed),
                WeightScheme::Uniform { lo: 0.0, hi: 1.0 },
                seed,
            );
            let expected = seq::local_dominant(&g);
            for parts in [1u32, 2, 4, 7] {
                let p = hash_partition(g.num_vertices(), parts, seed);
                let (m, _) = run_dist(&g, &p);
                m.validate(&g).unwrap();
                assert_eq!(
                    m, expected,
                    "seed {seed}, {parts} parts: distributed != sequential"
                );
            }
        }
    }

    #[test]
    fn weight_independent_of_rank_count() {
        // §5.2: "the sum of the weights of edges in the computed matching
        // remained the same, regardless of the number of processors used."
        let g = assign_weights(
            &grid2d(12, 12),
            WeightScheme::Uniform { lo: 0.0, hi: 1.0 },
            3,
        );
        let w1 = run_dist(&g, &Partition::single(g.num_vertices()))
            .0
            .weight(&g);
        for parts in [2u32, 3, 6, 12] {
            let p = block_partition(g.num_vertices(), parts);
            let w = run_dist(&g, &p).0.weight(&g);
            assert!((w - w1).abs() < 1e-9, "{parts} parts: {w} vs {w1}");
        }
    }

    #[test]
    fn equal_weights_are_handled() {
        // All-equal weights exercise every tie-break path.
        let g = assign_weights(&complete(10), WeightScheme::Equal(1.0), 0);
        let p = hash_partition(10, 3, 1);
        let (m, _) = run_dist(&g, &p);
        m.validate(&g).unwrap();
        assert!(m.is_maximal(&g));
        assert_eq!(m.cardinality(), 5);
    }

    #[test]
    fn disconnected_graph_and_isolated_vertices() {
        let mut b = cmg_graph::GraphBuilder::new(7);
        b.add_edge(0, 1, 1.0);
        b.add_edge(2, 3, 2.0);
        // 4, 5, 6 isolated
        let g = b.build();
        let p = block_partition(7, 3);
        let (m, _) = run_dist(&g, &p);
        m.validate(&g).unwrap();
        assert_eq!(m.cardinality(), 2);
        assert!(!m.is_matched(4));
    }

    #[test]
    fn bundling_reduces_packets_not_messages() {
        let g = assign_weights(
            &grid2d(16, 16),
            WeightScheme::Uniform { lo: 0.0, hi: 1.0 },
            7,
        );
        let p = block_partition(g.num_vertices(), 4);
        let parts = DistGraph::build_all(&g, &p);
        let run = |bundling: bool| {
            let programs: Vec<DistMatching> =
                parts.iter().cloned().map(DistMatching::new).collect();
            let cfg = EngineConfig {
                cost: CostModel::compute_only(),
                bundling,
                ..Default::default()
            };
            SimEngine::new(programs, cfg).run()
        };
        let bundled = run(true);
        let unbundled = run(false);
        assert_eq!(
            bundled.stats.total_messages(),
            unbundled.stats.total_messages()
        );
        assert!(
            bundled.stats.total_packets() < unbundled.stats.total_packets() / 2,
            "bundling should collapse packets: {} vs {}",
            bundled.stats.total_packets(),
            unbundled.stats.total_packets()
        );
        // And the matching itself is identical.
        let ma = assemble_matching(&bundled.programs, g.num_vertices());
        let mb = assemble_matching(&unbundled.programs, g.num_vertices());
        assert_eq!(ma, mb);
    }

    /// Drives two ranks round by round by hand and folds every rank's
    /// encoded [`MatchSnap`] stream at every round edge into one FNV-1a
    /// digest; also returns the number of `Proposal` records seen (so a
    /// fixture that never exercised `r_set` cannot pass silently).
    fn snapshot_digest(parts: Vec<DistGraph>) -> (u64, usize) {
        use cmg_runtime::ProgramSnapshot;
        let mut programs: Vec<DistMatching> = parts.into_iter().map(DistMatching::new).collect();
        let p = programs.len() as Rank;
        let mut ctxs: Vec<RankCtx<MatchMsg>> = (0..p)
            .map(|r| RankCtx::new(r, p, true, cmg_obs::RecorderHandle::noop()))
            .collect();
        let (mut digest, mut proposals) = (0xcbf2_9ce4_8422_2325u64, 0usize);
        let mut inboxes: Vec<Vec<(Rank, Vec<MatchMsg>)>> = vec![Vec::new(); p as usize];
        for round in 0.. {
            let mut next: Vec<Vec<(Rank, Vec<MatchMsg>)>> = vec![Vec::new(); p as usize];
            for (r, (prog, ctx)) in programs.iter_mut().zip(&mut ctxs).enumerate() {
                if round == 0 {
                    prog.on_start(ctx);
                } else {
                    prog.on_round(&mut inboxes[r], ctx);
                }
                for packet in ctx.end_round().1 {
                    let msgs = cmg_runtime::message::decode_all(packet.payload).unwrap();
                    next[packet.dst as usize].push((r as Rank, msgs));
                }
                let snap = prog.snapshot();
                proposals += snap
                    .iter()
                    .filter(|s| matches!(s, MatchSnap::Proposal { .. }))
                    .count();
                for &b in snap.encode_bytes().iter() {
                    digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
            if next.iter().all(Vec::is_empty) {
                break;
            }
            inboxes = next;
        }
        (digest, proposals)
    }

    /// The program state `DistMatching::new` sets up and the protocol
    /// evolves — cursors, candidates, pending proposals — pinned record
    /// for record to what the parent of the boundary-only `r_set` and
    /// the `sweights`-free `weight_sorted_csr` produced, on a 32² grid
    /// split in two blocks and hashed over two ranks.
    #[test]
    fn two_rank_snapshots_match_the_fixture() {
        use cmg_partition::simple::grid2d_partition;
        let g = assign_weights(
            &grid2d(32, 32),
            WeightScheme::Uniform { lo: 0.0, hi: 1.0 },
            5,
        );
        let block = snapshot_digest(DistGraph::build_all(&g, &grid2d_partition(32, 32, 1, 2)));
        let hashed = snapshot_digest(DistGraph::build_all(&g, &hash_partition(1024, 2, 3)));
        assert_eq!(block, (639_754_283_888_892_254, 0));
        assert_eq!(hashed, (746_777_585_637_176_078, 16));
    }

    #[test]
    fn message_bound_per_cross_edge() {
        // At most 3 logical messages per cross edge (§3.2).
        let g = assign_weights(
            &grid2d(10, 10),
            WeightScheme::Uniform { lo: 0.0, hi: 1.0 },
            11,
        );
        let p = block_partition(g.num_vertices(), 5);
        let cross = p.quality(&g).edge_cut as u64;
        let (_, stats) = run_dist(&g, &p);
        assert!(
            stats.total_messages() <= 3 * cross,
            "messages {} > 3 × cut {cross}",
            stats.total_messages()
        );
    }
}
