//! Matching extensions beyond the paper's core problem, following the
//! fourth author's thesis (ref \[9\], "Algorithms for vertex-weighted
//! matching in graphs") and the suitor line of work:
//!
//! * [`b_suitor`]: ½-approximate **b-matching** — every vertex `v` may be
//!   matched to up to `b(v)` partners, maximizing total edge weight;
//! * [`DistBSuitor`]: the distributed, message-driven form of the same
//!   algorithm, built on the shared substrate ([`HaloView`],
//!   [`weight_sorted_csr`], `wire_codec!`) — optimistic cross-rank
//!   proposals with displacement rejections;
//! * [`vertex_weighted_greedy`]: greedy **vertex-weighted matching** —
//!   maximize the sum of *vertex* weights covered by the matching (the
//!   objective behind block-triangular decompositions and sparse-basis
//!   computations in the paper's introduction).

use crate::Matching;
use cmg_graph::{CsrGraph, VertexId, Weight, NO_VERTEX};
use cmg_partition::{weight_sorted_csr_weighted, DistGraph, HaloView};
use cmg_runtime::{wire_codec, RankCtx, RankProgram, Status};
use std::collections::BinaryHeap;

/// A proposal held by a vertex: weight and the (global) proposer id.
/// Ordered as a *min*-heap element — the weakest proposal on top; ties
/// broken so the larger proposer id is weaker (smallest-label
/// preference, consistent on every rank because ids are global).
#[derive(PartialEq)]
struct Prop(Weight, VertexId);
impl Eq for Prop {}
impl Ord for Prop {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Strength is (weight desc, proposer id asc); the heap needs the
        // *weakest* proposal on top, so compare reversed: lower weight is
        // greater, and on weight ties the larger proposer id is greater
        // (= weaker). This matches the admissibility test
        // `(w, Reverse(p)) > (top.0, Reverse(top.1))` exactly — the two
        // orders must agree or displacement compares challengers against
        // the strongest suitor instead of the weakest and ties wedge.
        other
            .0
            .total_cmp(&self.0)
            .then_with(|| self.1.cmp(&other.1))
    }
}
impl PartialOrd for Prop {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A b-matching: each vertex holds a set of partners.
#[derive(Clone, Debug)]
pub struct BMatching {
    partners: Vec<Vec<VertexId>>,
}

impl BMatching {
    /// Partners of `v`.
    pub fn partners(&self, v: VertexId) -> &[VertexId] {
        &self.partners[v as usize]
    }

    /// Number of matched edges.
    pub fn num_edges(&self) -> usize {
        self.partners.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Total weight of matched edges in `g`.
    pub fn weight(&self, g: &CsrGraph) -> Weight {
        let mut total = 0.0;
        for v in 0..self.partners.len() as VertexId {
            for &u in &self.partners[v as usize] {
                if v < u {
                    debug_assert!(g.has_edge(v, u), "partner {u} of {v} must be a neighbor");
                    total += g.edge_weight(v, u).unwrap_or_default();
                }
            }
        }
        total
    }

    /// Validates against `g` and the capacity function `b`.
    pub fn validate(&self, g: &CsrGraph, b: &dyn Fn(VertexId) -> usize) -> Result<(), String> {
        for v in 0..self.partners.len() as VertexId {
            let ps = &self.partners[v as usize];
            if ps.len() > b(v) {
                return Err(format!("vertex {v} exceeds capacity: {}", ps.len()));
            }
            let mut sorted = ps.clone();
            sorted.sort_unstable();
            sorted.dedup();
            if sorted.len() != ps.len() {
                return Err(format!("vertex {v} has duplicate partners"));
            }
            for &u in ps {
                if !g.has_edge(v, u) {
                    return Err(format!("({v},{u}) is not an edge"));
                }
                if !self.partners[u as usize].contains(&v) {
                    return Err(format!("({v},{u}) not symmetric"));
                }
            }
        }
        Ok(())
    }

    /// Converts a `b ≡ 1` b-matching into a plain [`Matching`].
    pub fn to_matching(&self) -> Matching {
        let mate = self
            .partners
            .iter()
            .map(|p| p.first().copied().unwrap_or(NO_VERTEX))
            .collect();
        Matching::from_mates(mate)
    }
}

/// ½-approximate maximum-weight b-matching by the b-suitor algorithm
/// (Khan–Pothen et al.): every vertex proposes to its `b(v)` heaviest
/// neighbors, displacing weaker proposals; displaced vertices re-propose.
///
/// With `b ≡ 1` this is exactly the suitor algorithm and produces the
/// locally-dominant matching.
pub fn b_suitor(g: &CsrGraph, b: impl Fn(VertexId) -> usize) -> BMatching {
    let n = g.num_vertices();
    // suitors[u]: min-heap (by (weight, proposer), weakest on top) of
    // current proposals held by u, capacity b(u).
    let mut suitors: Vec<BinaryHeap<Prop>> = (0..n).map(|_| BinaryHeap::new()).collect();
    // Number of outstanding proposals each vertex has made.
    let mut made: Vec<usize> = vec![0; n];
    // Work stack of vertices that still owe proposals.
    let mut stack: Vec<VertexId> = (0..n as VertexId).rev().collect();

    // A proposal from `v` to `u` with weight `w` is *admissible* if u has
    // spare capacity or w beats u's weakest current suitor.
    while let Some(v) = stack.pop() {
        while made[v as usize] < b(v) {
            // Strongest admissible neighbor not already proposed to.
            let mut best: Option<(Weight, VertexId)> = None;
            for (u, w) in g.neighbors_weighted(v) {
                if suitors[u as usize].iter().any(|p| p.1 == v) {
                    continue; // already proposing to u
                }
                let cap = b(u);
                let admissible = suitors[u as usize].len() < cap
                    || suitors[u as usize].peek().is_some_and(|weakest| {
                        (w, std::cmp::Reverse(v)) > (weakest.0, std::cmp::Reverse(weakest.1))
                    });
                if admissible {
                    let better = match best {
                        None => true,
                        Some((bw, bu)) => w > bw || (w == bw && u < bu),
                    };
                    if better {
                        best = Some((w, u));
                    }
                }
            }
            let Some((w, u)) = best else { break };
            // Propose; displace the weakest if over capacity.
            suitors[u as usize].push(Prop(w, v));
            made[v as usize] += 1;
            if let Some(Prop(_, displaced)) = (suitors[u as usize].len() > b(u))
                .then(|| suitors[u as usize].pop())
                .flatten()
            {
                made[displaced as usize] -= 1;
                stack.push(displaced);
            }
        }
    }

    // Matched pairs = mutual proposals… in b-suitor, the final suitor
    // lists themselves are the matching (every accepted proposal is kept).
    let mut partners: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    for u in 0..n {
        for p in suitors[u].iter() {
            partners[u].push(p.1);
        }
    }
    // Symmetrize: keep (u,v) only if both sides hold the proposal? The
    // b-suitor invariant at quiescence makes suitor lists one-sided
    // records of accepted proposals: v proposing to u means the edge is
    // matched. Mirror them.
    let mut mirrored: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    for u in 0..n as VertexId {
        for &v in &partners[u as usize] {
            mirrored[u as usize].push(v);
            mirrored[v as usize].push(u);
        }
    }
    for l in &mut mirrored {
        l.sort_unstable();
        l.dedup();
    }
    BMatching { partners: mirrored }
}

wire_codec! {
    /// Wire messages of the distributed b-suitor program. Both carry
    /// *global* vertex ids; weights are never shipped because cross
    /// edges (and their weights) are replicated on both endpoint ranks.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum ExtMsg {
        /// `from` proposes the edge `(from, to)`; `to` is owned by the
        /// receiving rank.
        0 => Propose { from: VertexId, to: VertexId },
        /// `from`'s proposal to `to` was refused on arrival or later
        /// displaced by a stronger suitor; `from`'s owner re-proposes.
        1 => Reject { from: VertexId, to: VertexId },
    }
}

wire_codec! {
    /// Snapshot records of [`DistBSuitor`]: capacities, cursors, and the
    /// suitor heaps. Heap entries are emitted in the heap's internal
    /// array order; restoring re-heapifies an already-valid heap array,
    /// which performs no swaps — the rebuilt heap is layout-identical,
    /// so even tie-broken displacement order resumes bit-identically.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub enum BSuitorSnap {
        /// Per-owned-vertex counters, emitted for every `v` in
        /// `0..n_local` order (stream position = vertex).
        0 => Vertex {
            /// Outstanding proposals made by this vertex.
            made: u64,
            /// Next slot in the weight-sorted adjacency to consider.
            ptr: u64,
            /// Capacity `b(v)` (carried so restore needs no capacity fn).
            cap: u64,
        },
        /// One accepted proposal held by owned vertex `u`, in heap-array
        /// order.
        1 => Suitor {
            /// Holding vertex (local index).
            u: u32,
            /// Proposal weight.
            weight: f64,
            /// Proposer (global id).
            proposer: VertexId,
        },
        /// An entry of the work stack, bottom-to-top.
        2 => Stacked {
            /// Owned vertex (local index) that still owes proposals.
            v: u32,
        },
    }
}

/// Distributed b-suitor (Khan–Pothen et al.): each rank runs the
/// pointer-based suitor scan over its owned vertices, proposing
/// optimistically across rank boundaries. A remote proposal is judged by
/// the owner of the target: admissible proposals are accepted (possibly
/// displacing the weakest current suitor, who is notified and
/// re-proposes), inadmissible ones are rejected back to the proposer.
///
/// Because suitor heaps only ever *strengthen*, rejection is permanent
/// and the per-vertex pointer never revisits an earlier neighbor — the
/// algorithm reaches the unique locally-dominant b-matching regardless
/// of message schedule (for distinct edge weights), so the result equals
/// sequential [`b_suitor`] on the same graph.
///
/// Termination is by engine quiescence: the program is always
/// [`Status::Idle`]; the run ends when no Propose/Reject is in flight.
pub struct DistBSuitor {
    dg: DistGraph,
    halo: HaloView,
    /// Weight-sorted adjacency (descending weight, ascending global id)
    /// — the suitor scan order, identical on every rank.
    sxadj: Vec<usize>,
    sadj: Vec<u32>,
    sweights: Vec<Weight>,
    /// Capacity per owned vertex.
    b: Vec<usize>,
    /// Accepted proposals held by each owned vertex (weakest on top).
    suitors: Vec<BinaryHeap<Prop>>,
    /// Outstanding (sent or accepted) proposals per owned vertex.
    made: Vec<usize>,
    /// Next slot in `sadj` each owned vertex will consider.
    ptr: Vec<usize>,
    /// Owned vertices that still owe proposals.
    stack: Vec<u32>,
}

impl DistBSuitor {
    /// Builds the rank program. `b` takes *global* vertex ids so every
    /// rank sees the same capacity function.
    pub fn new(dg: DistGraph, b: impl Fn(VertexId) -> usize) -> Self {
        let halo = HaloView::build(&dg);
        let (sxadj, sadj, sweights) = weight_sorted_csr_weighted(&dg);
        let n = dg.n_local;
        let caps: Vec<usize> = (0..n).map(|v| b(dg.global_ids[v])).collect();
        let ptr = sxadj[..n].to_vec();
        // Pop order: boundary ascending first (cross-rank proposals
        // launch early, overlapping communication with interior work),
        // then interior ascending. On one rank everything is interior,
        // so the scan order matches sequential `b_suitor` exactly.
        let stack: Vec<u32> = halo
            .interior
            .iter()
            .rev()
            .chain(halo.boundary.iter().rev())
            .copied()
            .collect();
        DistBSuitor {
            dg,
            halo,
            sxadj,
            sadj,
            sweights,
            b: caps,
            suitors: (0..n).map(|_| BinaryHeap::new()).collect(),
            made: vec![0; n],
            ptr,
            stack,
        }
    }

    /// The halo view backing this program (boundary/interior split).
    pub fn halo(&self) -> &HaloView {
        &self.halo
    }

    /// Accepted proposals at this rank as `(target, proposer)` global-id
    /// pairs — the rank's share of the matching at quiescence.
    pub fn held_proposals(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.suitors.iter().enumerate().flat_map(move |(ul, heap)| {
            let ug = self.dg.global_ids[ul];
            heap.iter().map(move |p| (ug, p.1))
        })
    }

    /// Would a proposal `(w, proposer)` enter owned vertex `u`'s heap?
    fn admissible(&self, u: u32, w: Weight, proposer: VertexId) -> bool {
        let heap = &self.suitors[u as usize];
        heap.len() < self.b[u as usize]
            || heap.peek().is_some_and(|weakest| {
                (w, std::cmp::Reverse(proposer)) > (weakest.0, std::cmp::Reverse(weakest.1))
            })
    }

    /// Accepts an admissible proposal into owned vertex `u`'s heap,
    /// displacing (and notifying) the weakest suitor if over capacity.
    fn accept(&mut self, u: u32, proposer: VertexId, w: Weight, ctx: &mut RankCtx<ExtMsg>) {
        self.suitors[u as usize].push(Prop(w, proposer));
        if self.suitors[u as usize].len() > self.b[u as usize] {
            if let Some(Prop(_, displaced)) = self.suitors[u as usize].pop() {
                let to = self.dg.global_ids[u as usize];
                self.notify_displaced(displaced, to, ctx);
            }
        }
    }

    /// Routes a displacement: local proposers restack, remote proposers
    /// get a Reject to their owner.
    fn notify_displaced(&mut self, from: VertexId, to: VertexId, ctx: &mut RankCtx<ExtMsg>) {
        let Some(fl) = self.dg.local(from) else {
            return; // unknown proposer: drop (cannot happen in a valid run)
        };
        if self.dg.is_ghost(fl) {
            ctx.send(self.dg.owner(fl), &ExtMsg::Reject { from, to });
        } else {
            self.made[fl as usize] = self.made[fl as usize].saturating_sub(1);
            self.stack.push(fl);
        }
    }

    /// Advances owned vertex `v`'s pointer until its proposal budget is
    /// full or its neighbor list is exhausted.
    fn advance(&mut self, v: u32, ctx: &mut RankCtx<ExtMsg>) {
        while self.made[v as usize] < self.b[v as usize] {
            let i = self.ptr[v as usize];
            if i >= self.sxadj[v as usize + 1] {
                break;
            }
            self.ptr[v as usize] = i + 1;
            let u = self.sadj[i];
            let w = self.sweights[i];
            ctx.charge(1);
            if self.dg.is_ghost(u) {
                // Optimistic: count it made now; a Reject refunds it.
                self.made[v as usize] += 1;
                let msg = ExtMsg::Propose {
                    from: self.dg.global_ids[v as usize],
                    to: self.dg.global_ids[u as usize],
                };
                ctx.send(self.dg.owner(u), &msg);
            } else {
                let proposer = self.dg.global_ids[v as usize];
                if self.admissible(u, w, proposer) {
                    self.made[v as usize] += 1;
                    self.accept(u, proposer, w, ctx);
                }
                // Inadmissible targets stay inadmissible (heaps only
                // strengthen): skip forever.
            }
        }
    }

    fn drain(&mut self, ctx: &mut RankCtx<ExtMsg>) {
        while let Some(v) = self.stack.pop() {
            self.advance(v, ctx);
        }
    }

    fn handle(&mut self, msg: ExtMsg, ctx: &mut RankCtx<ExtMsg>) {
        match msg {
            ExtMsg::Propose { from, to } => {
                ctx.charge(1);
                let Some(tl) = self.dg.local(to) else {
                    return; // not ours: drop (cannot happen in a valid run)
                };
                // The cross edge is replicated locally: recover its weight
                // from `to`'s row.
                let w = self
                    .dg
                    .neighbors_weighted(tl)
                    .find(|&(u, _)| self.dg.global_ids[u as usize] == from)
                    .map(|(_, w)| w);
                match w {
                    Some(w) if self.admissible(tl, w, from) => self.accept(tl, from, w, ctx),
                    _ => {
                        // Refused (or no such edge): bounce to the
                        // proposer's owner so it re-proposes elsewhere.
                        if let Some(fl) = self.dg.local(from) {
                            ctx.send(self.dg.owner(fl), &ExtMsg::Reject { from, to });
                        }
                    }
                }
            }
            ExtMsg::Reject { from, to: _ } => {
                ctx.charge(1);
                let Some(fl) = self.dg.local(from) else {
                    return;
                };
                self.made[fl as usize] = self.made[fl as usize].saturating_sub(1);
                self.stack.push(fl);
            }
        }
    }
}

impl RankProgram for DistBSuitor {
    type Msg = ExtMsg;
    type Snapshot = Vec<BSuitorSnap>;
    type Meta = DistGraph;

    fn snapshot(&self) -> Vec<BSuitorSnap> {
        let n = self.dg.n_local;
        let mut recs = Vec::with_capacity(n + self.stack.len());
        for v in 0..n {
            recs.push(BSuitorSnap::Vertex {
                made: self.made[v] as u64,
                ptr: self.ptr[v] as u64,
                cap: self.b[v] as u64,
            });
        }
        for (u, heap) in self.suitors.iter().enumerate() {
            // `iter()` walks the internal heap array in order.
            for p in heap.iter() {
                recs.push(BSuitorSnap::Suitor {
                    u: u as u32,
                    weight: p.0,
                    proposer: p.1,
                });
            }
        }
        for &v in &self.stack {
            recs.push(BSuitorSnap::Stacked { v });
        }
        recs
    }

    fn restore(meta: DistGraph, snap: Vec<BSuitorSnap>) -> Self {
        let mut p = DistBSuitor::new(meta, |_| 0);
        let mut heaps: Vec<Vec<Prop>> = (0..p.dg.n_local).map(|_| Vec::new()).collect();
        p.stack.clear();
        let mut next_vertex = 0usize;
        for rec in snap {
            match rec {
                BSuitorSnap::Vertex { made, ptr, cap } => {
                    let v = next_vertex;
                    next_vertex += 1;
                    p.made[v] = made as usize;
                    p.ptr[v] = ptr as usize;
                    p.b[v] = cap as usize;
                }
                BSuitorSnap::Suitor {
                    u,
                    weight,
                    proposer,
                } => heaps[u as usize].push(Prop(weight, proposer)),
                BSuitorSnap::Stacked { v } => p.stack.push(v),
            }
        }
        debug_assert_eq!(next_vertex, p.dg.n_local, "snapshot/graph mismatch");
        // `From<Vec>` heapifies; on an already-valid heap array every
        // sift is a no-op, so the restored layout is byte-identical.
        p.suitors = heaps.into_iter().map(BinaryHeap::from).collect();
        p
    }

    fn meta(&self) -> DistGraph {
        self.dg.clone()
    }

    fn on_start(&mut self, ctx: &mut RankCtx<ExtMsg>) -> Status {
        self.drain(ctx);
        Status::Idle
    }

    fn on_round(
        &mut self,
        inbox: &mut Vec<(cmg_runtime::Rank, Vec<ExtMsg>)>,
        ctx: &mut RankCtx<ExtMsg>,
    ) -> Status {
        for (_, msgs) in inbox.drain(..) {
            for m in msgs {
                self.handle(m, ctx);
            }
        }
        self.drain(ctx);
        Status::Idle
    }
}

/// Assembles the global b-matching from finished rank programs. Each
/// accepted proposal at quiescence is a matched edge; mirror both
/// endpoints and dedup, exactly as sequential [`b_suitor`] does.
pub fn assemble_b_matching(programs: &[DistBSuitor], num_vertices: usize) -> BMatching {
    let mut partners: Vec<Vec<VertexId>> = vec![Vec::new(); num_vertices];
    for p in programs {
        for (ul, heap) in p.suitors.iter().enumerate() {
            let ug = p.dg.global_ids[ul];
            for prop in heap.iter() {
                partners[ug as usize].push(prop.1);
                partners[prop.1 as usize].push(ug);
            }
        }
    }
    for l in &mut partners {
        l.sort_unstable();
        l.dedup();
    }
    BMatching { partners }
}

/// Greedy vertex-weighted matching: maximize the total *vertex* weight
/// covered. Processes vertices by decreasing weight; each unmatched vertex
/// grabs its heaviest unmatched neighbor. ½-approximation for the
/// vertex-weighted objective.
///
/// `vertex_weight[v]` must have length `n`.
pub fn vertex_weighted_greedy(g: &CsrGraph, vertex_weight: &[Weight]) -> Matching {
    assert_eq!(vertex_weight.len(), g.num_vertices());
    let mut order: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
    order.sort_by(|&a, &b| {
        vertex_weight[b as usize]
            .total_cmp(&vertex_weight[a as usize])
            .then(a.cmp(&b))
    });
    let mut m = Matching::empty(g.num_vertices());
    for &v in &order {
        if m.is_matched(v) {
            continue;
        }
        // Heaviest unmatched neighbor by vertex weight (ties: smaller id).
        let mut best: Option<(Weight, VertexId)> = None;
        for &u in g.neighbors(v) {
            if !m.is_matched(u) {
                let w = vertex_weight[u as usize];
                let better = match best {
                    None => true,
                    Some((bw, bu)) => w > bw || (w == bw && u < bu),
                };
                if better {
                    best = Some((w, u));
                }
            }
        }
        if let Some((_, u)) = best {
            m.add(v, u);
        }
    }
    m
}

/// Total vertex weight covered by a matching.
pub fn covered_vertex_weight(m: &Matching, vertex_weight: &[Weight]) -> Weight {
    (0..m.num_vertices() as VertexId)
        .filter(|&v| m.is_matched(v))
        .map(|v| vertex_weight[v as usize])
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;
    use cmg_graph::generators::{complete, erdos_renyi, grid2d, star};
    use cmg_graph::weights::{assign_weights, WeightScheme};

    fn uniform(n: usize, m: usize, seed: u64) -> CsrGraph {
        assign_weights(
            &erdos_renyi(n, m, seed),
            WeightScheme::Uniform { lo: 0.0, hi: 1.0 },
            seed,
        )
    }

    #[test]
    fn b1_suitor_equals_plain_suitor() {
        for seed in 0..5 {
            let g = uniform(40, 120, seed);
            let bm = b_suitor(&g, |_| 1);
            bm.validate(&g, &|_| 1).unwrap();
            let expected = seq::suitor(&g);
            assert_eq!(bm.to_matching(), expected, "seed {seed}");
        }
    }

    #[test]
    fn b2_respects_capacities_and_beats_b1_weight() {
        for seed in 0..5 {
            let g = uniform(40, 160, seed);
            let b2 = b_suitor(&g, |_| 2);
            b2.validate(&g, &|_| 2).unwrap();
            let b1 = b_suitor(&g, |_| 1);
            assert!(
                b2.weight(&g) >= b1.weight(&g) - 1e-9,
                "seed {seed}: b=2 weight {} < b=1 weight {}",
                b2.weight(&g),
                b1.weight(&g)
            );
        }
    }

    #[test]
    fn heterogeneous_capacities() {
        let g = uniform(30, 90, 7);
        let b = |v: VertexId| 1 + (v as usize % 3);
        let bm = b_suitor(&g, b);
        bm.validate(&g, &b).unwrap();
    }

    #[test]
    fn star_with_b_on_hub() {
        // Hub with b=3 can take its three heaviest leaves.
        let g = assign_weights(&star(6), WeightScheme::Uniform { lo: 0.0, hi: 1.0 }, 2);
        let bm = b_suitor(&g, |v| if v == 0 { 3 } else { 1 });
        bm.validate(&g, &|v| if v == 0 { 3 } else { 1 }).unwrap();
        assert_eq!(bm.partners(0).len(), 3);
        // They are the heaviest three.
        let mut ws: Vec<Weight> = g.neighbor_weights(0).to_vec();
        ws.sort_by(|a, b| b.total_cmp(a));
        let expect: Weight = ws[..3].iter().sum();
        assert!((bm.weight(&g) - expect).abs() < 1e-9);
    }

    #[test]
    fn b_suitor_on_complete_graph_is_half_approx_of_trivial_bound() {
        let g = assign_weights(&complete(8), WeightScheme::Uniform { lo: 0.5, hi: 1.0 }, 3);
        let bm = b_suitor(&g, |_| 2);
        bm.validate(&g, &|_| 2).unwrap();
        // With b=2 and 8 vertices, at most 8 edges can be matched.
        assert!(bm.num_edges() <= 8);
        assert!(bm.num_edges() >= 6);
    }

    #[test]
    fn zero_capacity_vertices_stay_unmatched() {
        let g = uniform(10, 30, 4);
        let bm = b_suitor(&g, |v| if v < 5 { 0 } else { 1 });
        bm.validate(&g, &|v| if v < 5 { 0 } else { 1 }).unwrap();
        for v in 0..5 {
            assert!(bm.partners(v).is_empty());
        }
    }

    fn run_dist_b(
        g: &CsrGraph,
        partition: &cmg_partition::Partition,
        b: impl Fn(VertexId) -> usize + Copy,
    ) -> BMatching {
        use cmg_runtime::{CostModel, EngineConfig, SimEngine};
        let parts = DistGraph::build_all(g, partition);
        let programs: Vec<DistBSuitor> = parts
            .into_iter()
            .map(|dg| DistBSuitor::new(dg, b))
            .collect();
        let cfg = EngineConfig {
            cost: CostModel::compute_only(),
            max_rounds: 100_000,
            ..Default::default()
        };
        let result = SimEngine::new(programs, cfg).run();
        assert!(
            !result.hit_round_cap,
            "distributed b-suitor did not quiesce"
        );
        assemble_b_matching(&result.programs, g.num_vertices())
    }

    fn assert_same_b_matching(a: &BMatching, b: &BMatching, n: usize, what: &str) {
        for v in 0..n as VertexId {
            assert_eq!(a.partners(v), b.partners(v), "{what}: vertex {v} differs");
        }
    }

    #[test]
    fn dist_b_suitor_matches_sequential_across_partitions() {
        use cmg_partition::simple::{block_partition, hash_partition};
        for seed in 0..4 {
            let g = uniform(48, 160, seed);
            for b in [1usize, 2, 3] {
                let expected = b_suitor(&g, |_| b);
                for ranks in [1u32, 2, 4] {
                    let bp = block_partition(48, ranks);
                    let hp = hash_partition(48, ranks, seed);
                    for (p, name) in [(bp.clone(), "block"), (hp.clone(), "hash")] {
                        let got = run_dist_b(&g, &p, |_| b);
                        got.validate(&g, &|_| b).unwrap();
                        assert_same_b_matching(
                            &got,
                            &expected,
                            48,
                            &format!("seed {seed} b {b} ranks {ranks} {name}"),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn dist_b_suitor_heterogeneous_capacities() {
        use cmg_partition::simple::block_partition;
        let g = uniform(30, 90, 7);
        let b = |v: VertexId| 1 + (v as usize % 3);
        let expected = b_suitor(&g, b);
        for ranks in [2u32, 3] {
            let got = run_dist_b(&g, &block_partition(30, ranks), b);
            got.validate(&g, &b).unwrap();
            assert_same_b_matching(&got, &expected, 30, &format!("ranks {ranks}"));
        }
    }

    #[test]
    fn dist_b_suitor_unweighted_ties_match_sequential() {
        use cmg_partition::simple::block_partition;
        // Unit weights everywhere: every comparison is a tie, so this
        // exercises the id tie-breaks. The edge order (weight desc,
        // smaller endpoint asc) is still strict and globally consistent,
        // so the distributed run must reach the same fixpoint as the
        // sequential scan.
        let g = grid2d(7, 7);
        let got = run_dist_b(&g, &block_partition(49, 4), |_| 2);
        got.validate(&g, &|_| 2).unwrap();
        assert!(got.num_edges() > 0);
        let expected = b_suitor(&g, |_| 2);
        assert_same_b_matching(&got, &expected, 49, "unweighted grid");
    }

    #[test]
    fn dist_b_suitor_single_rank_uses_no_messages() {
        use cmg_runtime::{CostModel, EngineConfig, SimEngine};
        let g = uniform(20, 60, 1);
        let parts = DistGraph::build_all(&g, &cmg_partition::Partition::single(20));
        let programs: Vec<DistBSuitor> = parts
            .into_iter()
            .map(|dg| DistBSuitor::new(dg, |_| 1))
            .collect();
        assert!(programs[0].halo().boundary.is_empty());
        let cfg = EngineConfig {
            cost: CostModel::compute_only(),
            max_rounds: 100,
            ..Default::default()
        };
        let result = SimEngine::new(programs, cfg).run();
        let got = assemble_b_matching(&result.programs, 20);
        let expected = b_suitor(&g, |_| 1);
        assert_same_b_matching(&got, &expected, 20, "single rank");
    }

    #[test]
    fn ext_msg_codec_round_trip() {
        use cmg_runtime::WireMessage;
        let msgs = [
            ExtMsg::Propose { from: 3, to: 9 },
            ExtMsg::Reject { from: 9, to: 3 },
        ];
        let mut buf = bytes::BytesMut::new();
        for m in &msgs {
            m.encode(&mut buf);
            assert_eq!(m.encoded_len(), 9);
        }
        let decoded: Vec<ExtMsg> = cmg_runtime::message::decode_all(buf.freeze()).unwrap();
        assert_eq!(decoded, msgs);
    }

    #[test]
    fn vertex_weighted_greedy_covers_heavy_vertices() {
        // Path a-b-c with vertex weights 10, 1, 10: matching must cover
        // both heavy endpoints? Impossible (they're not adjacent) — greedy
        // picks (a,b), leaving c; total covered = 11.
        let g = grid2d(1, 3);
        let vw = [10.0, 1.0, 10.0];
        let m = vertex_weighted_greedy(&g, &vw);
        m.validate(&g).unwrap();
        assert_eq!(covered_vertex_weight(&m, &vw), 11.0);
    }

    #[test]
    fn vertex_weighted_greedy_is_maximal_and_valid() {
        for seed in 0..5 {
            let g = erdos_renyi(50, 150, seed);
            let vw: Vec<Weight> = (0..50).map(|v| ((v * 7919) % 100) as f64).collect();
            let m = vertex_weighted_greedy(&g, &vw);
            m.validate(&g).unwrap();
            assert!(m.is_maximal(&g), "seed {seed}");
        }
    }

    #[test]
    fn equal_vertex_weights_reduce_to_cardinality_greedy() {
        let g = erdos_renyi(30, 90, 2);
        let vw = vec![1.0; 30];
        let m = vertex_weighted_greedy(&g, &vw);
        assert!(m.is_maximal(&g));
        assert_eq!(covered_vertex_weight(&m, &vw), 2.0 * m.cardinality() as f64);
    }
}
