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
use cmg_partition::{
    gather_shares, ghost_neighbor_owners, sort_rows_by_weight, DistGraph, HaloView,
};
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
    /// the index the rank rebuilds from its graph on restore (the row
    /// sort and the halo view). One `Vertex` record
    /// per owned vertex in local-index order, then sparse records for
    /// non-default ghost states, pending proposals, queued indices, and
    /// the round's message tallies.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum MatchSnap {
        /// Per-owned-vertex state, emitted for every `v` in `0..n_local`
        /// order (the record's position in the stream is the vertex).
        0 => Vertex {
            /// Candidate-mate cursor into the slice's weight-sorted
            /// `adj` (absolute, not row-relative).
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
        /// A pending remote proposal to boundary vertex `v`, in arrival order.
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

/// One rank's state of the distributed matching algorithm. Every vector
/// below is empty until the rank builds its index (`on_start` or
/// `restore`).
pub struct DistMatching {
    /// The rank's slice; `build_index` sorts its rows by weight in place.
    dg: DistGraph,
    /// Candidate-mate cursor per owned vertex, as an offset into its own
    /// row of `dg.adj` (a row holds distinct `u32` local indices, so its
    /// length fits a `u32`).
    ptr: Vec<u32>,
    /// Availability per local index (owned + ghost).
    state: Vec<VState>,
    /// Candidate mate (local index) per owned vertex; `NONE` if exhausted.
    /// It stops moving once the vertex leaves `Free`, so a `Matched`
    /// vertex's candidate is its mate: `match_pair(v, c)` runs only when
    /// `candidate[v] == c` (and, `c` owned, `candidate[c] == v`), and the
    /// cursor `ptr` stays on that entry of the row.
    candidate: Vec<u32>,
    /// Pending remote proposals (requester local indices): boundary
    /// vertex `halo.boundary[s]` has the `NONE`-padded slots
    /// `proposal_x[s]..proposal_x[s + 1]`, one per ghost in its row (only
    /// a ghost neighbour proposes, at most once), filled in arrival order.
    proposal_x: Vec<u32>,
    proposals: Vec<u32>,
    /// Halo structure: the ghost reverse cross-adjacency lives here.
    halo: HaloView,
    /// Inner-loop queue of newly unavailable local indices. A matched
    /// pair takes one entry, the owned vertex `v` of `match_pair(v, c)`;
    /// the drain scans `v`'s row and then its mate's, the order in which
    /// two back-to-back entries would be popped.
    queue: VecDeque<u32>,
    /// Messages sent this round, by type (observability only).
    counts: RoundCounts,
}

impl DistMatching {
    /// Takes ownership of one rank's slice of a distributed (weighted)
    /// graph. Does no work sized by the slice: the rank builds its index
    /// itself, in [`RankProgram::on_start`] (or [`RankProgram::restore`]).
    pub fn new(dg: DistGraph) -> Self {
        DistMatching {
            dg,
            ptr: Vec::new(),
            state: Vec::new(),
            candidate: Vec::new(),
            proposal_x: Vec::new(),
            proposals: Vec::new(),
            halo: HaloView::default(),
            queue: VecDeque::new(),
            counts: RoundCounts::default(),
        }
    }

    /// Sorts the slice's rows by weight in place (a sorted slice stays as
    /// it is, so `restore` may sort again), builds the halo view and the
    /// proposal slots, and resets the per-vertex state to a fresh rank's.
    /// Charges no work: it is set-up, not protocol.
    fn build_index(&mut self) {
        let n_local = self.dg.n_local;
        sort_rows_by_weight(&mut self.dg);
        self.halo = HaloView::build(&self.dg);
        self.ptr = vec![0; n_local];
        self.state = vec![VState::Free; self.dg.n_total()];
        self.candidate = vec![NONE; n_local];
        let mut end = 0;
        let ends = self.halo.boundary.iter().map(|&v| {
            end += ghost_neighbor_owners(&self.dg, v).count() as u32;
            end
        });
        self.proposal_x = std::iter::once(0).chain(ends).collect();
        self.proposals = vec![NONE; self.halo.ghost_adj.len()];
    }

    /// Emits the round's REQUEST/SUCCEEDED/FAILED tallies as a
    /// [`cmg_obs::Event::MatchRound`] and resets them. Free when no
    /// recorder is attached.
    fn emit_round_counts(&mut self, ctx: &RankCtx<MatchMsg>) {
        let c = std::mem::take(&mut self.counts);
        ctx.emit(|| cmg_obs::Event::MatchRound {
            round: ctx.round() as u32,
            requests: c.requests,
            succeeded: c.succeeded,
            failed: c.failed,
        });
    }

    /// Mate (local index) of owned vertex `v`: its candidate once it is
    /// `Matched`; `None` while it is free or failed, and on a
    /// never-started rank.
    fn mate_local(&self, v: usize) -> Option<u32> {
        let matched = v < self.dg.n_local && self.state.get(v) == Some(&VState::Matched);
        matched.then(|| self.candidate[v])
    }

    /// Mate (global id) of owned vertex `v`; `NO_VERTEX` while unmatched.
    fn mate(&self, v: usize) -> VertexId {
        self.mate_local(v)
            .map_or(NO_VERTEX, |m| self.dg.global_ids[m as usize])
    }

    /// Final mates of the owned vertices, as `(global vertex, global mate)`
    /// pairs (`NO_VERTEX` mate = unmatched, as on a never-started rank).
    pub fn local_mates(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.dg.n_local).map(|v| (self.dg.global_ids[v], self.mate(v)))
    }

    /// Access to the underlying distributed graph.
    pub fn dist_graph(&self) -> &DistGraph {
        &self.dg
    }

    /// `true` once every owned vertex has left the `Free` state (matched
    /// or failed) — the per-rank quiescence condition. A rank that goes
    /// `Idle` while this is `false` has dropped protocol work on the
    /// floor; the `cmg-check` termination oracle asserts it after every
    /// run. A never-started rank's vertices are all still `Free`.
    pub fn is_resolved(&self) -> bool {
        (0..self.dg.n_local).all(|v| self.state.get(v).is_some_and(|&s| s != VState::Free))
    }

    /// This rank's contribution to the global matching weight: each
    /// matched edge is counted exactly once, by the owner of its
    /// smaller-id endpoint — so summing over all ranks gives the total
    /// weight without materializing the global graph.
    pub fn local_matched_weight(&self) -> Weight {
        let mut total = 0.0;
        for v in self.counted_matches() {
            // The cursor still marks the mate's entry of the row: the
            // edge's weight, no search.
            let at = self.dg.row(v as u32).start + self.ptr[v] as usize;
            total += self.dg.edge_weight(v as u32, at);
        }
        total
    }

    /// This rank's contribution to the global matching cardinality
    /// (counted like [`Self::local_matched_weight`]).
    pub fn local_matched_edges(&self) -> usize {
        self.counted_matches().count()
    }

    /// The owned vertices, ascending, that count their matched edge
    /// here: those whose global id is below their mate's.
    fn counted_matches(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.dg.n_local).filter(|&v| {
            self.mate_local(v)
                .is_some_and(|m| self.dg.global_ids[v] < self.dg.global_ids[m as usize])
        })
    }

    /// The range of `proposals` holding owned vertex `v`'s slots, found
    /// by its position in `halo.boundary`; empty for an interior vertex.
    fn slots(&self, v: u32) -> std::ops::Range<usize> {
        let boundary = &self.halo.boundary;
        match self.dg.is_boundary[v as usize].then(|| boundary.binary_search(&v)) {
            Some(Ok(s)) => self.proposal_x[s] as usize..self.proposal_x[s + 1] as usize,
            _ => 0..0,
        }
    }

    /// Stores ghost `u`'s proposal to owned vertex `v` in its first free
    /// slot. Only a neighbour proposes (`v` is then in `u`'s ascending
    /// reverse cross-adjacency), at most once: anything else is dropped.
    fn store_proposal(&mut self, v: u32, u: u32) {
        let gi = u as usize - self.dg.n_local;
        if self.halo.ghost_adj[self.halo.ghost_row(gi)]
            .binary_search(&v)
            .is_ok()
        {
            let range = self.slots(v);
            let slots = &mut self.proposals[range];
            if let Some(at) = slots.iter().position(|&r| r == NONE || r == u) {
                slots[at] = u;
            }
        }
    }

    /// Drops the pending proposals of owned vertex `v`.
    fn clear_proposals(&mut self, v: u32) {
        let range = self.slots(v);
        self.proposals[range].fill(NONE);
    }

    /// Advances `v`'s pointer past unavailable neighbors; returns the new
    /// candidate (local index) or `NONE`.
    fn advance(&mut self, v: u32, ctx: &mut RankCtx<MatchMsg>) -> u32 {
        let std::ops::Range { start: lo, end: hi } = self.dg.row(v);
        let mut at = lo + self.ptr[v as usize] as usize;
        let mut steps = 1u64;
        while at < hi && self.state[self.dg.adj[at] as usize] != VState::Free {
            at += 1;
            steps += 1;
        }
        self.ptr[v as usize] = (at - lo) as u32;
        ctx.charge(steps);
        if at < hi {
            self.dg.adj[at]
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
            if self.proposals[self.slots(v)].contains(&c) {
                self.match_pair(v, c, ctx);
            }
        }
    }

    /// Matches owned vertex `v` with its candidate `c` (owned or ghost),
    /// queueing the pair as the one entry `v`.
    fn match_pair(&mut self, v: u32, c: u32, ctx: &mut RankCtx<MatchMsg>) {
        debug_assert_eq!(self.state[v as usize], VState::Free);
        debug_assert_eq!(self.state[c as usize], VState::Free);
        debug_assert_eq!(self.candidate[v as usize], c);
        self.state[v as usize] = VState::Matched;
        self.state[c as usize] = VState::Matched;
        self.clear_proposals(v);
        self.announce_matched(v, c, ctx);
        self.queue.push_back(v);
        if !self.dg.is_ghost(c) {
            debug_assert_eq!(self.candidate[c as usize], v);
            self.clear_proposals(c);
            self.announce_matched(c, v, ctx);
        }
    }

    /// Sends SUCCEEDED for owned vertex `v` to every ghost neighbor except
    /// its mate `m`. An interior vertex has no ghost neighbor, so its row
    /// is not scanned.
    fn announce_matched(&mut self, v: u32, m: u32, ctx: &mut RankCtx<MatchMsg>) {
        if !self.dg.is_boundary[v as usize] {
            return;
        }
        let vg = self.dg.global_ids[v as usize];
        for i in self.dg.row(v) {
            let u = self.dg.adj[i];
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

    /// Marks owned vertex `v` unmatchable and notifies ghost neighbors
    /// (an interior vertex has none, so its row is not scanned).
    fn fail(&mut self, v: u32, ctx: &mut RankCtx<MatchMsg>) {
        self.state[v as usize] = VState::Failed;
        self.clear_proposals(v);
        self.queue.push_back(v);
        if !self.dg.is_boundary[v as usize] {
            return;
        }
        let vg = self.dg.global_ids[v as usize];
        for i in self.dg.row(v) {
            let u = self.dg.adj[i];
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
    }

    /// Inner loop: drains the queue of newly unavailable vertices,
    /// recomputing the candidates of affected Free owned neighbors — all
    /// without communication (messages are only *buffered* for the round's
    /// bundles).
    fn drain_queue(&mut self, ctx: &mut RankCtx<MatchMsg>) {
        while let Some(x) = self.queue.pop_front() {
            self.release(x, ctx);
            // An owned matched entry stands for its pair.
            if let Some(m) = self.mate_local(x as usize) {
                self.release(m, ctx);
            }
        }
    }

    /// Recomputes the candidates of the free owned neighbours of local
    /// index `x`, which has just become unavailable, that pointed at it.
    fn release(&mut self, x: u32, ctx: &mut RankCtx<MatchMsg>) {
        let n_local = self.dg.n_local;
        if (x as usize) < n_local {
            for i in self.dg.row(x) {
                let w = self.dg.adj[i];
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
            for i in self.halo.ghost_row(gi) {
                let w = self.halo.ghost_adj[i];
                ctx.charge(1);
                if self.state[w as usize] == VState::Free && self.candidate[w as usize] == x {
                    self.recompute(w, ctx);
                }
            }
        }
    }

    /// Handles one incoming message.
    fn handle(&mut self, msg: MatchMsg, ctx: &mut RankCtx<MatchMsg>) {
        ctx.charge(1);
        match msg {
            MatchMsg::Request { from, to } => {
                // In a valid run `to` is owned here and `from` is a ghost;
                // drop anything else, and a REQUEST our SUCCEEDED/FAILED crossed.
                let (Some(v), Some(u)) = (self.dg.local(to), self.dg.local(from)) else {
                    return;
                };
                let free = self.state[v as usize] == VState::Free;
                if !free || self.dg.is_ghost(v) || !self.dg.is_ghost(u) {
                    return;
                }
                if self.candidate[v as usize] == u {
                    self.match_pair(v, u, ctx);
                    self.drain_queue(ctx);
                } else {
                    self.store_proposal(v, u);
                }
            }
            MatchMsg::Succeeded { from, to: _ } | MatchMsg::Failed { from, to: _ } => {
                // In a valid run `from` is a ghost here: drop anything
                // else (an owned vertex marked `Matched` this way would
                // have no mate for the drain to scan).
                let Some(u) = self.dg.local(from).filter(|&u| self.dg.is_ghost(u)) else {
                    return;
                };
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
    type Record = MatchSnap;
    type Meta = DistGraph;

    /// A never-started rank has no index and no state: its snapshot is
    /// empty.
    fn snapshot(&self) -> Vec<MatchSnap> {
        let mut recs = Vec::with_capacity(self.ptr.len() + self.queue.len() + 1);
        // `ptr` has one cursor per owned vertex once the index is built.
        for v in 0..self.ptr.len() {
            recs.push(MatchSnap::Vertex {
                ptr: (self.dg.row(v as u32).start + self.ptr[v] as usize) as u64,
                state: self.state[v].to_u8(),
                mate: self.mate(v),
                candidate: self.candidate[v],
            });
        }
        for (g, &state) in self.state.iter().enumerate().skip(self.dg.n_local) {
            if state != VState::Free {
                recs.push(MatchSnap::Ghost {
                    idx: g as u32,
                    state: state.to_u8(),
                });
            }
        }
        for &v in &self.halo.boundary {
            let pending = self.proposals[self.slots(v)]
                .iter()
                .take_while(|&&r| r != NONE);
            recs.extend(pending.map(|&requester| MatchSnap::Proposal { v, requester }));
        }
        // A matched pair is written as the two entries it stands for.
        for &idx in &self.queue {
            recs.push(MatchSnap::Queued { idx });
            if let Some(m) = self.mate_local(idx as usize) {
                recs.push(MatchSnap::Queued { idx: m });
            }
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

    /// Builds the index itself (a resumed rank gets no `on_start`), then
    /// applies the records; an empty snapshot gives a fresh rank. A
    /// record's `mate` is derived from its state and candidate, so it is
    /// not read back; a queued pair's second entry folds into its first.
    fn restore(meta: DistGraph, snap: Vec<MatchSnap>) -> Self {
        let mut p = DistMatching::new(meta);
        p.build_index();
        let mut next_vertex = 0usize;
        let mut partner = None;
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
                    p.ptr[v] = (ptr as usize).saturating_sub(p.dg.row(v as u32).start) as u32;
                    p.state[v] = VState::from_u8(state);
                    p.candidate[v] = candidate;
                    debug_assert_eq!(mate, p.mate(v), "vertex {v}: mate is not the candidate");
                }
                MatchSnap::Ghost { idx, state } => p.state[idx as usize] = VState::from_u8(state),
                MatchSnap::Proposal { v, requester } => p.store_proposal(v, requester),
                MatchSnap::Queued { idx } => {
                    if partner.take() != Some(idx) {
                        p.queue.push_back(idx);
                        partner = p.mate_local(idx as usize);
                    }
                }
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
        debug_assert!(
            next_vertex == 0 || next_vertex == p.dg.n_local,
            "snapshot/graph mismatch"
        );
        p
    }

    fn meta(&self) -> DistGraph {
        self.dg.clone()
    }

    fn on_start(&mut self, ctx: &mut RankCtx<MatchMsg>) -> Status {
        self.build_index();
        // Initial candidates for every still-free owned vertex…
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
        // The start's drain can queue a pair per owned vertex; a round's
        // queue stays short. Keep a small floor, so the rounds do not
        // regrow it from nothing.
        self.queue.shrink_to(16);
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

/// Assembles the global mate vector from every rank's `(vertex, mate)`
/// share, `shares` in rank order: each vertex of `0..n` reported by
/// exactly one rank ([`gather_shares`]), and every reported pair
/// symmetric. The error names the offending vertex.
pub fn assemble_mates<S>(
    n: usize,
    shares: impl IntoIterator<Item = S>,
) -> Result<Vec<VertexId>, String>
where
    S: IntoIterator<Item = (VertexId, VertexId)>,
{
    let mate = gather_shares(n, shares, "reported")?;
    for (v, &m) in mate.iter().enumerate() {
        if m != NO_VERTEX && mate.get(m as usize) != Some(&(v as VertexId)) {
            return Err(format!(
                "asymmetric pair: mate[{v}] = {m} but not vice versa"
            ));
        }
    }
    Ok(mate)
}

/// Assembles the global matching from every rank's finished program,
/// through [`assemble_mates`].
///
/// # Panics
/// Panics, naming the vertex, if the ranks' reports do not form one
/// matching of `0..num_vertices` (would indicate a protocol bug).
#[expect(
    clippy::panic,
    reason = "documented: ranks that disagree are a protocol bug; the net engine reports it typed"
)]
pub fn assemble_matching(programs: &[DistMatching], num_vertices: usize) -> Matching {
    match assemble_mates(num_vertices, programs.iter().map(DistMatching::local_mates)) {
        Ok(mate) => Matching::from_mates(mate),
        Err(e) => panic!("ranks disagree: {e}"),
    }
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

    /// Two ranks' `(vertex, value)` shares and the text the error they
    /// raise must contain ("" = none).
    type Row = (&'static [(u32, u32)], &'static [(u32, u32)], &'static str);

    /// Three vertices over two ranks (0–1 matched, 2 free): the correct
    /// report, then one row per check it must fail, with the vertex its
    /// error names. Removing any of the four checks fails its row.
    #[test]
    fn mate_assembly_cross_validates_ranks() {
        let rows: [Row; 5] = [
            (&[(0, 1), (1, 0)], &[(2, NO_VERTEX)], ""),
            (
                &[(0, 1), (1, 0)],
                &[(2, 0)],
                "mate[2] = 0 but not vice versa",
            ),
            (
                &[(0, 1), (1, 0)],
                &[(1, 0), (2, NO_VERTEX)],
                "vertex 1 reported by two ranks",
            ),
            (
                &[(0, 1), (1, 0)],
                &[(2, NO_VERTEX), (9, 0)],
                "rank 1 reported vertex 9 outside",
            ),
            (&[(0, 1), (1, 0)], &[], "no rank reported vertex 2"),
        ];
        for (rank0, rank1, want) in rows {
            match assemble_mates(3, [rank0, rank1].map(|s| s.iter().copied())) {
                Ok(mate) => assert_eq!((mate, want), (vec![1, 0, NO_VERTEX], "")),
                Err(e) => assert!(!want.is_empty() && e.contains(want), "{e:?} vs {want:?}"),
            }
        }
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
    /// fixture that never exercised the proposal slots cannot pass
    /// silently).
    fn snapshot_digest(parts: Vec<DistGraph>) -> (u64, usize) {
        let mut programs: Vec<DistMatching> = parts.into_iter().map(DistMatching::new).collect();
        let p = programs.len() as Rank;
        let mut ctxs: Vec<RankCtx<MatchMsg>> = (0..p)
            .map(|r| RankCtx::new(r, p, true, cmg_obs::RecorderHandle::noop()))
            .collect();
        let (mut digest, mut proposals) = (cmg_obs::Fnv1a::new(), 0usize);
        let mut inboxes: Vec<Vec<(Rank, Vec<MatchMsg>)>> = vec![Vec::new(); p as usize];
        for round in 0.. {
            let mut next: Vec<Vec<(Rank, Vec<MatchMsg>)>> = vec![Vec::new(); p as usize];
            for (r, (prog, ctx)) in programs.iter_mut().zip(&mut ctxs).enumerate() {
                if round == 0 {
                    prog.on_start(ctx);
                } else {
                    prog.on_round(&mut inboxes[r], ctx);
                }
                for parcel in ctx.end_round().1 {
                    next[parcel.dst as usize].push((r as Rank, parcel.msgs));
                }
                let snap = prog.snapshot();
                proposals += snap
                    .iter()
                    .filter(|s| matches!(s, MatchSnap::Proposal { .. }))
                    .count();
                let mut bytes = Vec::new();
                cmg_runtime::encode_snapshot(&snap, &mut bytes);
                digest.bytes(&bytes);
            }
            if next.iter().all(Vec::is_empty) {
                break;
            }
            inboxes = next;
        }
        (digest.finish(), proposals)
    }

    /// The program state the index build sets up and the protocol
    /// evolves — cursors, candidates, pending proposals — pinned record
    /// for record to what the separately allocated weight-sorted copy of
    /// the adjacency and the per-vertex proposal lists produced, on a 32² grid
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

    /// Requests no valid run sends — from a ghost that is not the
    /// addressee's neighbour, from an owned vertex, to a ghost, and a
    /// repeat — are dropped without touching any vertex's proposal
    /// slots, the neighbouring vertex's pending proposal included; so are
    /// notices that name an owned vertex as their sender, which would
    /// otherwise mark it matched with no mate.
    #[test]
    fn hostile_requests_are_dropped() {
        // Rank 0 owns 0, 1, 2; rank 1 owns 3, 4, 5. Vertices 0 and 1
        // propose to ghosts 3 and 4, vertex 2 to vertex 0: all stay free.
        let mut b = cmg_graph::GraphBuilder::new(6);
        for (u, v, w) in [
            (0, 3, 9.0),
            (0, 4, 2.0),
            (0, 2, 0.5),
            (1, 4, 8.0),
            (1, 5, 7.0),
            (1, 3, 1.0),
        ] {
            b.add_edge(u, v, w);
        }
        let g = b.build();
        let dg = DistGraph::build_all(&g, &block_partition(6, 2)).swap_remove(0);
        let mut prog = DistMatching::new(dg);
        let mut ctx = RankCtx::new(0, 2, true, cmg_obs::RecorderHandle::noop());
        prog.on_start(&mut ctx);
        // A valid proposal: ghost 5 to vertex 1, whose candidate is 4.
        prog.handle(MatchMsg::Request { from: 5, to: 1 }, &mut ctx);
        let five = prog.dg.local(5).unwrap();
        let proposals = |p: &DistMatching| -> Vec<MatchSnap> {
            p.snapshot()
                .into_iter()
                .filter(|r| matches!(r, MatchSnap::Proposal { .. }))
                .collect()
        };
        assert_eq!(
            proposals(&prog),
            [MatchSnap::Proposal {
                v: 1,
                requester: five
            }]
        );
        let before = prog.snapshot();
        assert!(before[..3]
            .iter()
            .all(|r| matches!(r, MatchSnap::Vertex { state: 0, .. })));
        for hostile in [
            // Ghost 5 is not a neighbour of vertex 0.
            MatchMsg::Request { from: 5, to: 0 },
            // Vertex 2 is owned here (and a neighbour of vertex 0).
            MatchMsg::Request { from: 2, to: 0 },
            // Vertex 4 is a ghost here.
            MatchMsg::Request { from: 3, to: 4 },
            // Ghost 5's proposal to vertex 1 is already pending.
            MatchMsg::Request { from: 5, to: 1 },
            // Vertices 2 and 0 are owned here.
            MatchMsg::Succeeded { from: 2, to: 0 },
            MatchMsg::Failed { from: 0, to: 1 },
        ] {
            prog.handle(hostile, &mut ctx);
            assert_eq!(prog.snapshot(), before, "{hostile:?} changed the state");
            assert!(prog.queue.is_empty(), "{hostile:?} queued {:?}", prog.queue);
        }
        // Vertex 0's two slots stay empty; vertex 1's hold ghost 5 once.
        assert_eq!(prog.proposal_x, [0, 2, 5]);
        assert_eq!(prog.proposals[..2], [NONE, NONE]);
        assert_eq!(proposals(&prog).len(), 1);
    }

    /// A matched pair is one queue entry in memory and its two entries in
    /// a snapshot, whose `mate` fields are the derived ones; `restore`
    /// folds the pair back, so the restored rank snapshots the same.
    #[test]
    fn queued_pairs_round_trip_through_snapshots() {
        // One rank, the path 0 – 1 – 2 – 3.
        let mut b = cmg_graph::GraphBuilder::new(4);
        for (u, v, w) in [(0, 1, 3.0), (1, 2, 1.0), (2, 3, 2.0)] {
            b.add_edge(u, v, w);
        }
        let dg = DistGraph::build_all(&b.build(), &Partition::single(4)).swap_remove(0);
        let mut prog = DistMatching::new(dg.clone());
        let mut ctx = RankCtx::new(0, 1, true, cmg_obs::RecorderHandle::noop());
        prog.build_index();
        (prog.candidate[0], prog.candidate[1]) = (1, 0);
        prog.match_pair(0, 1, &mut ctx);
        prog.fail(3, &mut ctx);
        assert_eq!(prog.queue, [0, 3]);
        let snap = prog.snapshot();
        let queued: Vec<MatchSnap> = snap
            .iter()
            .copied()
            .filter(|r| matches!(r, MatchSnap::Queued { .. }))
            .collect();
        let q = |idx| MatchSnap::Queued { idx };
        assert_eq!(queued, [q(0), q(1), q(3)]);
        assert!(matches!(
            snap[1],
            MatchSnap::Vertex {
                state: 1,
                mate: 0,
                ..
            }
        ));
        let restored = DistMatching::restore(dg, snap.clone());
        assert_eq!(restored.queue, [0, 3]);
        assert_eq!(restored.snapshot(), snap);
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
