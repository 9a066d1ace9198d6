//! Distributed speculative **distance-2** coloring.
//!
//! Extends the paper's speculative/iterative framework (§4) to the
//! distance-2 problem that motivates it (Jacobian/Hessian compression,
//! §1). The structure per phase mirrors Algorithm 4.1 — speculative
//! coloring in supersteps, a `DONE` wave, conflict detection, an allreduce
//! on the conflict count — with two distance-2-specific twists:
//!
//! * **Relay detection.** A distance-2 conflict `a – m – b` is detected by
//!   the owner of the *middle* vertex `m`, the only rank guaranteed to
//!   know both endpoint colors (they are its owned/ghost neighbors). The
//!   loser's owner is notified with a `Recolor` message; a second wave
//!   (`Done2`) closes the notification phase.
//! * **Learned constraints + randomized backoff.** A rank cannot see
//!   colors two hops away through a *ghost* middle, so a losing vertex
//!   permanently bans the conflicting color before re-coloring, and picks
//!   its next color from a hash-randomized window that widens with every
//!   loss. The bans prune the choice space; the randomization breaks the
//!   lockstep in which two symmetric losers shadow each other's first-fit
//!   choices forever. Convergence is a handful of phases in practice.

use crate::coloring::UNCOLORED;
use cmg_graph::util::{vertex_priority, FxHashMap, FxHashSet};
use cmg_graph::VertexId;
use cmg_partition::{ghost_neighbor_owners, DistGraph, HaloView};
use cmg_runtime::{
    fan_out, wire_codec, DoneWave, FanoutScheme, NeighborExchange, Rank, RankCtx, RankProgram,
    ReduceOutcome, Status, TreeAllreduce,
};

wire_codec! {
    /// Wire messages of the distance-2 coloring algorithm.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum D2Msg {
        /// Vertex `v` (global id) now has `color`.
        0 => Color {
            /// Recolored vertex.
            v: VertexId,
            /// Its new color.
            color: u32,
        },
        /// Sender finished coloring its phase-`phase` vertex set.
        1 => Done {
            /// Phase number.
            phase: u32,
        },
        /// Sender finished detection (all its `Recolor`s for `phase` are out).
        2 => Done2 {
            /// Phase number.
            phase: u32,
        },
        /// `v` (owned by the receiver) lost a conflict and must re-color,
        /// permanently avoiding `banned`.
        3 => Recolor {
            /// Losing vertex.
            v: VertexId,
            /// The color it clashed with.
            banned: u32,
        },
        /// Allreduce: subtree conflict count flowing up.
        4 => Reduce {
            /// Phase number.
            phase: u32,
            /// Conflicts in the sender's subtree.
            count: u64,
        },
        /// Allreduce: global conflict count flowing down.
        5 => Bcast {
            /// Phase number.
            phase: u32,
            /// Global conflict count.
            count: u64,
        },
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PState {
    Coloring,
    WaitingDone,
    WaitingDone2,
    WaitingReduce,
    WaitingBcast,
    Finished,
}

impl PState {
    fn to_u8(self) -> u8 {
        match self {
            PState::Coloring => 0,
            PState::WaitingDone => 1,
            PState::WaitingDone2 => 2,
            PState::WaitingReduce => 3,
            PState::WaitingBcast => 4,
            PState::Finished => 5,
        }
    }

    fn from_u8(b: u8) -> PState {
        match b {
            1 => PState::WaitingDone,
            2 => PState::WaitingDone2,
            3 => PState::WaitingReduce,
            4 => PState::WaitingBcast,
            5 => PState::Finished,
            _ => PState::Coloring,
        }
    }
}

wire_codec! {
    /// Snapshot records of [`DistColoring2`]: protocol position, colors,
    /// work lists, learned bans (emitted in sorted order — the map is
    /// only ever iterated for idempotent stamp-marking, so rebuild order
    /// is harmless but sorted emission keeps snapshot bytes
    /// deterministic), the dirty-ghost and re-color sets, and both DONE
    /// waves plus the allreduce accumulator.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum D2Snap {
        /// Protocol position (exactly one per snapshot, first).
        0 => Head {
            /// Current phase number.
            phase: u32,
            /// [`PState`] as `u8`.
            state: u8,
            /// Phases executed so far.
            phases_executed: u32,
            /// Total vertices re-colored over the run.
            total_recolored: u64,
            /// Bit 0: detection done.
            flags: u8,
            /// Progress within the phase's work list.
            u_pos: u64,
        },
        /// A local index (owned or ghost) with an assigned color.
        1 => Colored {
            /// Local index.
            idx: u32,
            /// Assigned color.
            color: u32,
        },
        /// An entry of the phase's work list `u_cur`, in list order.
        2 => Pending {
            /// Vertex to (re)color (local index).
            v: u32,
        },
        /// A learned permanent ban, sorted by `(v, color)`.
        3 => Banned {
            /// Owned vertex (local index).
            v: u32,
            /// Color it may never take.
            color: u32,
        },
        /// A ghost whose color changed this phase, in arrival order.
        4 => DirtyGhost {
            /// Ghost local index.
            idx: u32,
        },
        /// An entry of next phase's re-color set, in insertion order
        /// (`in_r` is rebuilt from these).
        5 => Recolor {
            /// Owned vertex (local index).
            v: u32,
        },
        /// In-flight first-wave DONE tally for one phase.
        6 => DoneCount {
            /// Phase the DONEs belong to.
            phase: u32,
            /// DONEs received so far.
            count: u64,
        },
        /// In-flight second-wave DONE2 tally for one phase.
        7 => Done2Count {
            /// Phase the DONE2s belong to.
            phase: u32,
            /// DONE2s received so far.
            count: u64,
        },
        /// In-flight allreduce accumulator for one phase.
        8 => Reduce {
            /// Phase being reduced.
            phase: u32,
            /// Child contributions absorbed so far.
            count: u64,
            /// Partial subtree conflict sum.
            value: u64,
        },
    }
}

/// One rank's state of the distributed distance-2 coloring.
pub struct DistColoring2 {
    dg: DistGraph,
    superstep_size: usize,
    /// Halo structure: interior/boundary split of the owned vertices.
    halo: HaloView,
    /// Current color per local index.
    color: Vec<u32>,
    /// Random priority per local index.
    priority: Vec<u64>,
    /// Owned vertices to (re)color this phase, and progress.
    u_cur: Vec<u32>,
    u_pos: usize,
    phase: u32,
    state: PState,
    /// Phases executed ("rounds" in the paper's terms).
    pub phases_executed: u32,
    /// Total vertices re-colored over the whole run.
    pub total_recolored: u64,
    /// Permanently banned colors per owned vertex (learned constraints).
    learned: FxHashMap<u32, FxHashSet<u32>>,
    /// Ghosts whose color changed this phase.
    dirty_ghosts: Vec<u32>,
    /// Next phase's re-color set (dedup via `in_r`).
    r_set: Vec<u32>,
    in_r: Vec<bool>,
    /// Boundary fan-out (the paper's NEW neighbor-customized scheme).
    exchange: NeighborExchange,
    /// Wave bookkeeping (per phase; ranks may run one phase apart).
    done: DoneWave,
    done2: DoneWave,
    /// Per-phase conflict-count allreduce (8-ary tree, as in d1).
    allreduce: TreeAllreduce<u64>,
    detection_done: bool,
    /// Scratch for forbidden-color computation.
    forbidden: Vec<u64>,
    stamp: u64,
    seed: u64,
}

impl DistColoring2 {
    /// Prepares the program for one rank; `superstep_size` as in the d1
    /// framework, `seed` for the priority function.
    pub fn new(dg: DistGraph, superstep_size: usize, seed: u64) -> Self {
        let n_total = dg.n_total();
        let priority = (0..n_total)
            .map(|i| vertex_priority(dg.global_ids[i] as u64, seed))
            .collect();
        let halo = HaloView::build(&dg);
        DistColoring2 {
            color: vec![UNCOLORED; n_total],
            priority,
            halo,
            u_cur: Vec::new(),
            u_pos: 0,
            phase: 0,
            state: PState::Coloring,
            phases_executed: 0,
            total_recolored: 0,
            learned: FxHashMap::default(),
            dirty_ghosts: Vec::new(),
            r_set: Vec::new(),
            in_r: vec![false; dg.n_local],
            exchange: NeighborExchange::new(FanoutScheme::Neighbor, dg.rank, dg.num_ranks),
            done: DoneWave::new(),
            done2: DoneWave::new(),
            allreduce: TreeAllreduce::new(dg.rank, dg.num_ranks, 8),
            detection_done: false,
            forbidden: vec![u64::MAX; n_total + 2],
            stamp: 0,
            superstep_size: superstep_size.max(1),
            seed,
            dg,
        }
    }

    /// Final colors of owned vertices.
    pub fn local_colors(&self) -> impl Iterator<Item = (VertexId, u32)> + '_ {
        (0..self.dg.n_local).map(|v| (self.dg.global_ids[v], self.color[v]))
    }

    /// Largest owned color.
    pub fn max_local_color(&self) -> Option<u32> {
        (0..self.dg.n_local).map(|v| self.color[v]).max()
    }

    fn scope(&self) -> &[Rank] {
        &self.dg.neighbor_ranks
    }

    /// Picks a color for owned `v`: forbid distance-1 colors, distance-2
    /// colors visible through *owned* middles, and the learned bans.
    fn pick_color(&mut self, v: u32, ctx: &mut RankCtx<D2Msg>) -> u32 {
        self.stamp += 1;
        let mut work = 1u64;
        for &u in self.dg.neighbors(v) {
            work += 1;
            let cu = self.color[u as usize];
            if cu != UNCOLORED && (cu as usize) < self.forbidden.len() {
                self.forbidden[cu as usize] = self.stamp;
            }
            if !self.dg.is_ghost(u) {
                for &w in self.dg.neighbors(u) {
                    work += 1;
                    if w != v {
                        let cw = self.color[w as usize];
                        if cw != UNCOLORED && (cw as usize) < self.forbidden.len() {
                            self.forbidden[cw as usize] = self.stamp;
                        }
                    }
                }
            }
        }
        if let Some(banned) = self.learned.get(&v) {
            for &c in banned {
                if (c as usize) < self.forbidden.len() {
                    self.forbidden[c as usize] = self.stamp;
                }
            }
        }
        ctx.charge(work);
        // Randomized backoff (the standard escape from speculative-d2
        // lockstep): a vertex that has lost `l` conflicts picks uniformly
        // (hash-seeded, deterministic) among its first `l + 1` permissible
        // colors instead of strictly first-fit, so two symmetric losers
        // stop shadowing each other's choices.
        let losses = self.learned.get(&v).map_or(0, |s| s.len()) as u64;
        // The window must keep widening with losses: high-multiplicity
        // conflict sets (e.g. a star's leaves, all pairwise at distance 2)
        // need a window as large as the set to separate in few phases.
        let window = losses + 1;
        let pick = if window == 1 {
            0
        } else {
            let key = (self.dg.global_ids[v as usize] as u64) ^ ((self.phase as u64) << 32);
            vertex_priority(key, self.seed) % window
        };
        let mut c = 0u32;
        let mut skipped = 0u64;
        loop {
            let allowed =
                (c as usize) >= self.forbidden.len() || self.forbidden[c as usize] != self.stamp;
            if allowed {
                if skipped == pick {
                    break;
                }
                skipped += 1;
            }
            c += 1;
        }
        c
    }

    /// Publishes `(v, color)` to every neighbor rank owning a neighbor of
    /// `v` (the paper's NEW customized scheme).
    fn publish_color(&mut self, v: u32, c: u32, ctx: &mut RankCtx<D2Msg>) {
        let msg = D2Msg::Color {
            v: self.dg.global_ids[v as usize],
            color: c,
        };
        self.exchange
            .publish(ctx, ghost_neighbor_owners(&self.dg, v), &msg);
    }

    fn superstep(&mut self, ctx: &mut RankCtx<D2Msg>) -> bool {
        let end = (self.u_pos + self.superstep_size).min(self.u_cur.len());
        self.exchange.begin_superstep();
        while self.u_pos < end {
            let v = self.u_cur[self.u_pos];
            self.u_pos += 1;
            let c = self.pick_color(v, ctx);
            self.color[v as usize] = c;
            self.publish_color(v, c, ctx);
        }
        self.u_pos >= self.u_cur.len()
    }

    fn announce(&mut self, msg: D2Msg, ctx: &mut RankCtx<D2Msg>) {
        fan_out(ctx, self.scope(), &msg);
    }

    /// Adds owned vertex `v` to next phase's re-color set, banning `c`.
    fn mark_loser(&mut self, v: u32, c: u32) {
        self.learned.entry(v).or_default().insert(c);
        if !self.in_r[v as usize] {
            self.in_r[v as usize] = true;
            self.r_set.push(v);
        }
    }

    /// Conflict detection: distance-1 against ghosts for vertices colored
    /// this phase, and distance-2 relay detection through owned middles
    /// touched by this phase's color changes.
    fn detect_conflicts(&mut self, ctx: &mut RankCtx<D2Msg>) {
        // Dirty set: owned vertices colored this phase + updated ghosts.
        let mut dirty: Vec<u32> = self.u_cur[..self.u_pos].to_vec();
        dirty.append(&mut self.dirty_ghosts);
        let mut dirty_mark = vec![false; self.dg.n_total()];
        for &d in &dirty {
            dirty_mark[d as usize] = true;
        }

        // Distance-1 checks for own colored boundary vertices.
        for i in 0..self.u_pos {
            let v = self.u_cur[i];
            ctx.charge(self.dg.degree(v) as u64);
            let cv = self.color[v as usize];
            let pv = (self.priority[v as usize], self.dg.global_ids[v as usize]);
            let loses = self.dg.neighbors(v).iter().any(|&w| {
                self.dg.is_ghost(w)
                    && self.color[w as usize] == cv
                    && (self.priority[w as usize], self.dg.global_ids[w as usize]) > pv
            });
            if loses {
                self.mark_loser(v, cv);
            }
        }

        // Distance-2 relay detection through owned middles.
        for m in 0..self.dg.n_local as u32 {
            let nbrs_range = self.dg.xadj[m as usize]..self.dg.xadj[m as usize + 1];
            // Skip middles with no dirty neighbor (cheap scan).
            let any_dirty = self.dg.adj[nbrs_range.clone()]
                .iter()
                .any(|&u| dirty_mark[u as usize]);
            ctx.charge((nbrs_range.end - nbrs_range.start) as u64);
            if !any_dirty {
                continue;
            }
            let (lo, hi) = (nbrs_range.start, nbrs_range.end);
            for ia in lo..hi {
                let a = self.dg.adj[ia];
                if !dirty_mark[a as usize] {
                    continue;
                }
                let ca = self.color[a as usize];
                if ca == UNCOLORED {
                    continue;
                }
                for ib in lo..hi {
                    ctx.charge(1);
                    let b = self.dg.adj[ib];
                    if b == a || self.color[b as usize] != ca {
                        continue;
                    }
                    // Conflict pair (a, b) through middle m: smaller
                    // priority loses.
                    let pa = (self.priority[a as usize], self.dg.global_ids[a as usize]);
                    let pb = (self.priority[b as usize], self.dg.global_ids[b as usize]);
                    let loser = if pa < pb { a } else { b };
                    if self.dg.is_ghost(loser) {
                        ctx.send(
                            self.dg.owner(loser),
                            &D2Msg::Recolor {
                                v: self.dg.global_ids[loser as usize],
                                banned: ca,
                            },
                        );
                    } else {
                        self.mark_loser(loser, ca);
                    }
                }
            }
        }

        self.detection_done = true;
        self.announce(D2Msg::Done2 { phase: self.phase }, ctx);
        self.state = PState::WaitingDone2;
        self.try_finish_detection(ctx);
    }

    /// After `Done2` from every neighbor the re-color set is final.
    fn try_finish_detection(&mut self, ctx: &mut RankCtx<D2Msg>) {
        if self.state != PState::WaitingDone2 {
            return;
        }
        if !self.done2.ready(self.phase, self.scope().len()) {
            return;
        }
        self.state = PState::WaitingReduce;
        // The re-color set is final only now (remote Recolor messages may
        // grow it until the Done2 wave closes), so this is the earliest
        // point at which the phase's conflict count is known.
        if ctx.observed() {
            ctx.emit(cmg_obs::Event::ColoringRound {
                phase: self.phase,
                conflicts: self.r_set.len() as u64,
                colors_used: self.colors_used_so_far(),
            });
        }
        self.try_send_reduce(ctx);
    }

    /// Number of distinct color slots this rank's owned vertices occupy so
    /// far (max assigned color + 1; 0 before anything is colored).
    fn colors_used_so_far(&self) -> u64 {
        (0..self.dg.n_local)
            .map(|v| self.color[v])
            .filter(|&c| c != UNCOLORED)
            .map(|c| c as u64 + 1)
            .max()
            .unwrap_or(0)
    }

    fn try_send_reduce(&mut self, ctx: &mut RankCtx<D2Msg>) {
        if self.state != PState::WaitingReduce || !self.detection_done {
            return;
        }
        let own = self.r_set.len() as u64;
        match self.allreduce.try_complete(self.phase, own) {
            None => {}
            Some(ReduceOutcome::ToParent { parent, value }) => {
                ctx.send(
                    parent,
                    &D2Msg::Reduce {
                        phase: self.phase,
                        count: value,
                    },
                );
                self.state = PState::WaitingBcast;
            }
            Some(ReduceOutcome::Root { value }) => self.broadcast_and_act(value, ctx),
        }
    }

    fn broadcast_and_act(&mut self, total: u64, ctx: &mut RankCtx<D2Msg>) {
        let msg = D2Msg::Bcast {
            phase: self.phase,
            count: total,
        };
        fan_out(ctx, self.allreduce.children(), &msg);
        self.done.clear(self.phase);
        self.done2.clear(self.phase);
        if total == 0 {
            self.state = PState::Finished;
            return;
        }
        // Next phase with the re-color set.
        self.phase += 1;
        self.phases_executed += 1;
        self.detection_done = false;
        self.total_recolored += self.r_set.len() as u64;
        self.u_cur = std::mem::take(&mut self.r_set);
        for &v in &self.u_cur {
            self.in_r[v as usize] = false;
        }
        self.u_pos = 0;
        self.state = PState::Coloring;
        if self.superstep(ctx) {
            self.announce(D2Msg::Done { phase: self.phase }, ctx);
            self.state = PState::WaitingDone;
            self.try_detect(ctx);
        }
    }

    fn try_detect(&mut self, ctx: &mut RankCtx<D2Msg>) {
        if self.state != PState::WaitingDone {
            return;
        }
        if self.done.ready(self.phase, self.scope().len()) {
            self.detect_conflicts(ctx);
        }
    }

    fn handle(&mut self, msg: D2Msg, ctx: &mut RankCtx<D2Msg>) {
        ctx.charge(1);
        match msg {
            D2Msg::Color { v, color } => {
                // Known in a valid run; drop a message naming a vertex
                // this rank does not hold.
                let Some(local) = self.dg.local(v) else {
                    return;
                };
                self.color[local as usize] = color;
                self.dirty_ghosts.push(local);
            }
            D2Msg::Done { phase } => {
                self.done.record(phase);
                self.try_detect(ctx);
            }
            D2Msg::Done2 { phase } => {
                self.done2.record(phase);
                self.try_finish_detection(ctx);
            }
            D2Msg::Recolor { v, banned } => {
                let Some(local) = self.dg.local(v) else {
                    return;
                };
                debug_assert!(!self.dg.is_ghost(local));
                self.mark_loser(local, banned);
            }
            D2Msg::Reduce { phase, count } => {
                self.allreduce.absorb_child(phase, count);
                self.try_send_reduce(ctx);
            }
            D2Msg::Bcast { phase, count } => {
                debug_assert_eq!(phase, self.phase);
                self.broadcast_and_act(count, ctx);
            }
        }
    }

    fn status(&self) -> Status {
        if self.state == PState::Coloring && self.u_pos < self.u_cur.len() {
            Status::Active
        } else {
            Status::Idle
        }
    }
}

impl RankProgram for DistColoring2 {
    type Msg = D2Msg;
    type Snapshot = Vec<D2Snap>;
    type Meta = (DistGraph, usize, u64);

    fn snapshot(&self) -> Vec<D2Snap> {
        let mut recs = Vec::with_capacity(1 + self.dg.n_total() + self.u_cur.len());
        recs.push(D2Snap::Head {
            phase: self.phase,
            state: self.state.to_u8(),
            phases_executed: self.phases_executed,
            total_recolored: self.total_recolored,
            flags: self.detection_done as u8,
            u_pos: self.u_pos as u64,
        });
        for (idx, &color) in self.color.iter().enumerate() {
            if color != UNCOLORED {
                recs.push(D2Snap::Colored {
                    idx: idx as u32,
                    color,
                });
            }
        }
        for &v in &self.u_cur {
            recs.push(D2Snap::Pending { v });
        }
        let mut bans: Vec<(u32, u32)> = self
            .learned
            .iter()
            .flat_map(|(&v, set)| set.iter().map(move |&c| (v, c)))
            .collect();
        bans.sort_unstable();
        for (v, color) in bans {
            recs.push(D2Snap::Banned { v, color });
        }
        for &idx in &self.dirty_ghosts {
            recs.push(D2Snap::DirtyGhost { idx });
        }
        for &v in &self.r_set {
            recs.push(D2Snap::Recolor { v });
        }
        for &(phase, count) in self.done.in_flight() {
            recs.push(D2Snap::DoneCount {
                phase,
                count: count as u64,
            });
        }
        for &(phase, count) in self.done2.in_flight() {
            recs.push(D2Snap::Done2Count {
                phase,
                count: count as u64,
            });
        }
        for &(phase, count, value) in self.allreduce.in_flight() {
            recs.push(D2Snap::Reduce {
                phase,
                count: count as u64,
                value,
            });
        }
        recs
    }

    fn restore(meta: (DistGraph, usize, u64), snap: Vec<D2Snap>) -> Self {
        let (dg, superstep_size, seed) = meta;
        let mut p = DistColoring2::new(dg, superstep_size, seed);
        let mut done = Vec::new();
        let mut done2 = Vec::new();
        let mut reduce = Vec::new();
        for rec in snap {
            match rec {
                D2Snap::Head {
                    phase,
                    state,
                    phases_executed,
                    total_recolored,
                    flags,
                    u_pos,
                } => {
                    p.phase = phase;
                    p.state = PState::from_u8(state);
                    p.phases_executed = phases_executed;
                    p.total_recolored = total_recolored;
                    p.detection_done = flags & 1 != 0;
                    p.u_pos = u_pos as usize;
                }
                D2Snap::Colored { idx, color } => p.color[idx as usize] = color,
                D2Snap::Pending { v } => p.u_cur.push(v),
                D2Snap::Banned { v, color } => {
                    p.learned.entry(v).or_default().insert(color);
                }
                D2Snap::DirtyGhost { idx } => p.dirty_ghosts.push(idx),
                D2Snap::Recolor { v } => {
                    p.in_r[v as usize] = true;
                    p.r_set.push(v);
                }
                D2Snap::DoneCount { phase, count } => done.push((phase, count as usize)),
                D2Snap::Done2Count { phase, count } => done2.push((phase, count as usize)),
                D2Snap::Reduce {
                    phase,
                    count,
                    value,
                } => reduce.push((phase, count as usize, value)),
            }
        }
        p.done.restore_in_flight(done);
        p.done2.restore_in_flight(done2);
        p.allreduce.restore_in_flight(reduce);
        p
    }

    fn meta(&self) -> (DistGraph, usize, u64) {
        (self.dg.clone(), self.superstep_size, self.seed)
    }

    fn on_start(&mut self, ctx: &mut RankCtx<D2Msg>) -> Status {
        // Unlike distance-1, interior vertices are not conflict-free (two
        // interior vertices of different ranks may share a ghost-middle
        // path only if both are boundary — interior vertices are ≥ 2 hops
        // from any cross edge, so they *are* safe: color them first).
        // Boundary last: their speculative colors settle against fresher
        // interior information.
        self.u_cur = self
            .halo
            .interior
            .iter()
            .chain(self.halo.boundary.iter())
            .copied()
            .collect();
        self.u_pos = 0;
        self.phases_executed = 1;
        if self.superstep(ctx) {
            self.announce(D2Msg::Done { phase: 0 }, ctx);
            self.state = PState::WaitingDone;
            self.try_detect(ctx);
        }
        self.status()
    }

    fn on_round(
        &mut self,
        inbox: &mut Vec<(Rank, Vec<D2Msg>)>,
        ctx: &mut RankCtx<D2Msg>,
    ) -> Status {
        for (_, msgs) in inbox.drain(..) {
            for m in msgs {
                self.handle(m, ctx);
            }
        }
        if self.state == PState::Coloring && self.superstep(ctx) {
            self.announce(D2Msg::Done { phase: self.phase }, ctx);
            self.state = PState::WaitingDone;
            self.try_detect(ctx);
        }
        self.status()
    }
}

/// Assembles the global distance-2 coloring from finished rank programs.
pub fn assemble_d2(programs: &[DistColoring2], num_vertices: usize) -> crate::Coloring {
    let mut coloring = crate::Coloring::uncolored(num_vertices);
    for p in programs {
        for (v, c) in p.local_colors() {
            coloring.set(v, c);
        }
    }
    coloring
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance2::{greedy_d2, validate_d2};
    use crate::seq::Ordering;
    use cmg_graph::generators::{circuit_like, erdos_renyi, grid2d, star};
    use cmg_graph::CsrGraph;
    use cmg_partition::simple::{block_partition, hash_partition};
    use cmg_partition::Partition;
    use cmg_runtime::{CostModel, EngineConfig, SimEngine};

    fn run_d2(g: &CsrGraph, partition: &Partition, s: usize) -> (crate::Coloring, u32) {
        let parts = DistGraph::build_all(g, partition);
        let programs: Vec<DistColoring2> = parts
            .into_iter()
            .map(|dg| DistColoring2::new(dg, s, 99))
            .collect();
        let cfg = EngineConfig {
            cost: CostModel::compute_only(),
            max_rounds: 100_000,
            ..Default::default()
        };
        let result = SimEngine::new(programs, cfg).run();
        assert!(!result.hit_round_cap, "d2 coloring did not quiesce");
        let phases = result
            .programs
            .iter()
            .map(|p| p.phases_executed)
            .max()
            .unwrap_or(0);
        (assemble_d2(&result.programs, g.num_vertices()), phases)
    }

    #[test]
    fn codec_round_trip() {
        use cmg_runtime::WireMessage;
        let msgs = [
            D2Msg::Color { v: 1, color: 2 },
            D2Msg::Done { phase: 3 },
            D2Msg::Done2 { phase: 4 },
            D2Msg::Recolor { v: 5, banned: 6 },
            D2Msg::Reduce { phase: 7, count: 8 },
            D2Msg::Bcast { phase: 9, count: 0 },
        ];
        let mut buf = bytes::BytesMut::new();
        for m in &msgs {
            m.encode(&mut buf);
        }
        let decoded: Vec<D2Msg> = cmg_runtime::message::decode_all(buf.freeze()).unwrap();
        assert_eq!(decoded, msgs);
    }

    #[test]
    fn single_rank_matches_d2_validity() {
        let g = grid2d(8, 8);
        let (c, phases) = run_d2(&g, &Partition::single(64), 1000);
        validate_d2(&c, &g).unwrap();
        assert_eq!(phases, 1);
    }

    #[test]
    fn grid_d2_across_ranks() {
        let g = grid2d(12, 12);
        for parts in [2u32, 4, 9] {
            let p = block_partition(144, parts);
            let (c, phases) = run_d2(&g, &p, 8);
            validate_d2(&c, &g).unwrap();
            assert!(phases <= 12, "{phases} phases");
            // Stay in the ballpark of sequential d2 (never worse than 3x).
            let seq = greedy_d2(&g, Ordering::Natural).num_colors();
            assert!(c.num_colors() <= 3 * seq, "{} vs seq {seq}", c.num_colors());
        }
    }

    #[test]
    fn random_graph_d2_many_ranks() {
        let g = erdos_renyi(150, 450, 7);
        let p = hash_partition(150, 8, 1);
        let (c, _) = run_d2(&g, &p, 4);
        validate_d2(&c, &g).unwrap();
        assert!(c.num_colors() <= g.max_degree() * g.max_degree() + 1);
    }

    #[test]
    fn star_center_split_from_leaves() {
        // All leaves mutually at distance 2 through the hub: the hub's
        // owner must relay-detect every leaf pair conflict.
        let g = star(20);
        let p = hash_partition(20, 4, 2);
        let (c, _) = run_d2(&g, &p, 2);
        validate_d2(&c, &g).unwrap();
        assert_eq!(c.num_colors(), 20);
    }

    #[test]
    fn circuit_graph_d2() {
        let g = circuit_like(1_000, 11);
        let p = block_partition(g.num_vertices(), 6);
        let (c, phases) = run_d2(&g, &p, 100);
        validate_d2(&c, &g).unwrap();
        assert!(phases <= 8, "{phases} phases");
    }

    #[test]
    fn superstep_one_worst_case_speculation() {
        let g = grid2d(6, 6);
        let p = hash_partition(36, 6, 3);
        let (c, _) = run_d2(&g, &p, 1);
        validate_d2(&c, &g).unwrap();
    }

    #[test]
    fn empty_and_tiny() {
        let g = CsrGraph::empty(3);
        let (c, _) = run_d2(&g, &block_partition(3, 2), 10);
        assert!(c.is_complete());
    }
}
