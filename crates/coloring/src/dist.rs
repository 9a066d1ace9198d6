//! The distributed speculative/iterative coloring framework (§4,
//! Algorithm 4.1) with the paper's new neighbor-customized communication
//! scheme and the FIAC / FIAB variants it improves on.
//!
//! Each *phase* (an iteration of Algorithm 4.1's `while` loop) consists of:
//!
//! 1. **speculative coloring** of the phase's vertex set `U` in supersteps
//!    of `s` vertices, exchanging boundary colors after each superstep;
//! 2. a **`DONE` wave** so every rank knows its neighbors' colors for the
//!    phase are complete ("Wait until all incoming messages are
//!    successfully received");
//! 3. **conflict detection**, which picks the losers re-colored next phase
//!    by the pre-assigned random priority `r(v)`;
//! 4. a **tree allreduce** of the global conflict count, realizing the
//!    framework's `while ∃j, Uj ≠ ∅` termination test.
//!
//! [`DistColoring`] is that loop, written once. Its [`ConflictScope`]
//! parameter decides the three things distance-1 and distance-2 coloring
//! do differently — Taş–Kaya (arXiv:1701.02628) treat both as one
//! optimistic color → detect → recolor loop: which colors a vertex may
//! take, the first phase's work list, and who detects a clash.
//!
//! * [`Distance1`] is the paper's algorithm. Detection is local: for a
//!   conflict edge, the endpoint with the smaller `r(v)` loses. Each
//!   vertex takes the smallest color its neighbors leave free (first-fit),
//!   and interior vertices are colored entirely locally before the
//!   boundary, following the recommendation of Bozdağ et al. that the
//!   paper adopts.
//! * [`Distance2`] serves the distance-2 problem behind the paper's
//!   flagship application (Jacobian/Hessian compression, §1). A conflict
//!   `a – m – b` is detected by the owner of the *middle* vertex `m`, the
//!   only rank guaranteed to know both endpoint colors; the loser's owner
//!   is notified with a `Recolor` message, and a second wave (`Done2`)
//!   closes detection. A rank cannot see colors two hops away through a
//!   *ghost* middle, so a losing vertex permanently bans the conflicting
//!   color and picks its next color from a hash-randomized window that
//!   widens with every loss: the bans prune the choice space, the
//!   randomization breaks the lockstep in which two symmetric losers
//!   shadow each other's first-fit choices forever.

use crate::coloring::{count_conflicts, LocalColors, UNCOLORED};
use crate::seq::FirstFit;
use cmg_graph::util::vertex_priority;
use cmg_graph::VertexId;
use cmg_partition::{ghost_neighbor_owners, DistGraph};
use cmg_runtime::{
    fan_out, wire_codec, DoneWave, NeighborExchange, Rank, RankCtx, RankProgram, ReduceOutcome,
    Status, TreeAllreduce,
};

/// Communication variant for boundary-color exchange (§4.2): the
/// runtime's fan-out scheme — FIAB, FIAC or the paper's new scheme,
/// customized messages to neighbor ranks only.
pub use cmg_runtime::FanoutScheme as CommVariant;

/// Configuration of the distributed coloring algorithm.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ColoringConfig {
    /// Superstep size `s`: vertices colored between communication steps.
    pub superstep_size: usize,
    /// Communication variant.
    pub comm: CommVariant,
    /// Seed of the pre-assigned random priority function `r(v)`.
    pub seed: u64,
}

impl Default for ColoringConfig {
    fn default() -> Self {
        ColoringConfig {
            superstep_size: 1000, // the paper's recommendation for
            // well-partitioned graphs
            comm: CommVariant::Neighbor,
            seed: 0x5eed,
        }
    }
}

wire_codec! {
    /// Wire messages of the coloring algorithm. Tags 0–4 are the whole
    /// distance-1 protocol; 5 and 6 carry distance-2 relay detection.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum ColorMsg {
        /// Vertex `v` (global id) now has `color`.
        0 => Color {
            /// Recolored vertex.
            v: VertexId,
            /// Its new color.
            color: u32,
        },
        /// FIAC's customized-but-empty message.
        1 => Empty,
        /// Sender finished coloring phase `phase`.
        2 => Done {
            /// Phase number.
            phase: u32,
        },
        /// Allreduce: subtree conflict count flowing up.
        3 => Reduce {
            /// Phase number.
            phase: u32,
            /// Conflicts in the sender's subtree.
            count: u64,
        },
        /// Allreduce: global conflict count flowing down.
        4 => Bcast {
            /// Phase number.
            phase: u32,
            /// Global conflict count.
            count: u64,
        },
        /// Sender finished detection (all its `Recolor`s for `phase` are out).
        5 => Done2 {
            /// Phase number.
            phase: u32,
        },
        /// `v` (owned by the receiver) lost a conflict and must re-color,
        /// permanently avoiding `banned`.
        6 => Recolor {
            /// Losing vertex.
            v: VertexId,
            /// The color it clashed with.
            banned: u32,
        },
    }
}

/// Where the rank is in the per-phase protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PState {
    Coloring,
    WaitingDone,
    WaitingReduce,
    WaitingBcast,
    Finished,
    WaitingDone2,
}

impl PState {
    fn to_u8(self) -> u8 {
        match self {
            PState::Coloring => 0,
            PState::WaitingDone => 1,
            PState::WaitingReduce => 2,
            PState::WaitingBcast => 3,
            PState::Finished => 4,
            PState::WaitingDone2 => 5,
        }
    }

    fn from_u8(b: u8) -> PState {
        match b {
            1 => PState::WaitingDone,
            2 => PState::WaitingReduce,
            3 => PState::WaitingBcast,
            4 => PState::Finished,
            5 => PState::WaitingDone2,
            _ => PState::Coloring,
        }
    }
}

wire_codec! {
    /// Snapshot records of [`DistColoring`]: phase-protocol position,
    /// assigned colors (owned and ghost), the phase's remaining work
    /// list, the conflict scope's own state, and the in-flight state of
    /// the DONE wave and conflict-count allreduce. The exchange's
    /// neighbour list and dedup stamps are rebuilt from the graph +
    /// config on restore; the colour picker starts empty, and a priority
    /// is hashed from the global id when read. Tags
    /// 0–2, 4 and 5 are all a distance-1 snapshot holds; 6–9 are
    /// distance-2 state. Tag 3 (a retired usage-table slot) is not reused.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum ColorSnap {
        /// Protocol position (exactly one per snapshot, first).
        0 => Head {
            /// Current phase number.
            phase: u32,
            /// [`PState`] as `u8`.
            state: u8,
            /// Phases executed so far.
            phases_executed: u32,
            /// Total vertices re-colored due to conflicts.
            total_recolored: u64,
            /// Bit 0: detection done; bit 1: the first phase has begun
            /// (written for byte compatibility, ignored on restore).
            flags: u8,
            /// This rank's conflict count for the current phase.
            my_conflicts: u64,
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
        /// In-flight DONE-wave tally for one phase.
        4 => DoneCount {
            /// Phase the DONEs belong to.
            phase: u32,
            /// DONEs received so far.
            count: u64,
        },
        /// In-flight allreduce accumulator for one phase.
        5 => Reduce {
            /// Phase being reduced.
            phase: u32,
            /// Child contributions absorbed so far.
            count: u64,
            /// Partial subtree conflict sum.
            value: u64,
        },
        /// A learned permanent ban; the records are sorted by
        /// `(v, color)` and distinct.
        6 => Banned {
            /// Owned vertex (local index).
            v: u32,
            /// Color it may never take.
            color: u32,
        },
        /// A ghost whose color changed this phase, in arrival order.
        7 => DirtyGhost {
            /// Ghost local index.
            idx: u32,
        },
        /// An entry of next phase's re-color set, in insertion order.
        8 => Recolor {
            /// Owned vertex (local index).
            v: u32,
        },
        /// In-flight second-wave DONE2 tally for one phase.
        9 => Done2Count {
            /// Phase the DONE2s belong to.
            phase: u32,
            /// DONE2s received so far.
            count: u64,
        },
    }
}

/// What distance-1 and distance-2 speculative coloring do differently,
/// plus the state only that scope needs. Everything else — supersteps,
/// the DONE wave, the allreduce, the phase state machine, snapshots — is
/// [`DistColoring`]'s. The hooks are resolved statically: a scope is a
/// type parameter, never a per-vertex branch. `Default` is the scope of
/// a rank that has not built its index yet.
pub trait ConflictScope: Sized + Send + Default {
    /// The scope's state for a fresh rank, built with the rank's index
    /// (on the rank itself).
    fn new(_dg: &DistGraph) -> Self {
        Self::default()
    }

    /// Picks a permissible color for owned vertex `v`, charging one work
    /// unit per adjacency entry scanned.
    fn pick_color(p: &mut DistColoring<Self>, v: u32, ctx: &mut RankCtx<ColorMsg>) -> u32;

    /// Sets the first phase's work list. Every scope colors the interior
    /// before the boundary: up front, or at the head of the list.
    fn first_phase(p: &mut DistColoring<Self>, ctx: &mut RankCtx<ColorMsg>);

    /// Detects this phase's conflicts once the DONE wave is in, ending in
    /// `DistColoring::conclude_detection` with the losers.
    fn detect(p: &mut DistColoring<Self>, ctx: &mut RankCtx<ColorMsg>);

    /// Handles a detection message of the scope's own (`Done2`,
    /// `Recolor`).
    fn on_detect_msg(_p: &mut DistColoring<Self>, _msg: ColorMsg, _ctx: &mut RankCtx<ColorMsg>) {}

    /// Notes that ghost `local` received a new color.
    fn ghost_colored(&mut self, _local: u32) {}

    /// Appends the scope's state to a snapshot.
    fn snapshot(&self, _recs: &mut Vec<ColorSnap>) {}

    /// Restores the scope's state from the records the shared skeleton
    /// does not own.
    fn restore(&mut self, _recs: Vec<ColorSnap>) {}
}

/// One rank's state of the distributed coloring algorithm; `S` is the
/// conflict scope (distance-1 unless named). The per-vertex arrays,
/// the exchange's neighbour list and the scope's state are empty until
/// the rank builds its index (`on_start` or `restore`).
pub struct DistColoring<S: ConflictScope = Distance1> {
    dg: DistGraph,
    cfg: ColoringConfig,
    /// Current color per local index (owned + ghost).
    color: Vec<u32>,
    /// Vertices to (re)color this phase, and progress within them.
    u_cur: Vec<u32>,
    u_pos: usize,
    phase: u32,
    state: PState,
    /// Phases executed so far (the paper's "rounds").
    pub phases_executed: u32,
    /// Total vertices this rank had to re-color due to conflicts.
    pub total_recolored: u64,
    /// Boundary fan-out under the configured communication variant; its
    /// peers are the rank's DONE scope.
    exchange: NeighborExchange,
    /// Per-phase DONE wave (ranks may run one phase ahead).
    done: DoneWave,
    /// Per-phase conflict-count allreduce (8-ary tree: the shallow
    /// fan-out mirrors optimized MPI collectives — Blue Gene/P even has
    /// a dedicated hardware tree network for them).
    allreduce: TreeAllreduce<u64>,
    my_conflicts: u64,
    first_fit: FirstFit,
    scope: S,
}

impl DistColoring {
    /// Takes ownership of one rank's slice for the distance-1 program.
    /// Does no work sized by the slice: the rank builds its index itself,
    /// in [`RankProgram::on_start`] (or [`RankProgram::restore`]).
    pub fn new(dg: DistGraph, cfg: ColoringConfig) -> Self {
        DistColoring::from_slice(dg, cfg)
    }

    /// This rank's share of the coloring's conflict edges: each conflict
    /// edge of the graph is counted by exactly one rank, the owner of its
    /// smaller global id, so summing over ranks validates the whole
    /// coloring without the global graph.
    pub fn local_conflict_count(&self) -> usize {
        count_conflicts(&self.dg, |i| self.color_of(i))
    }
}

impl DistColoring<Distance2> {
    /// Takes ownership of one rank's slice for the distance-2 program:
    /// superstep size and priority seed as in distance-1, the paper's
    /// neighbor-customized exchange. Like [`DistColoring::new`], does no
    /// work sized by the slice.
    pub fn distance2(dg: DistGraph, superstep_size: usize, seed: u64) -> Self {
        let cfg = ColoringConfig {
            superstep_size,
            seed,
            ..ColoringConfig::default()
        };
        DistColoring::from_slice(dg, cfg)
    }
}

impl<S: ConflictScope> DistColoring<S> {
    fn from_slice(dg: DistGraph, cfg: ColoringConfig) -> Self {
        DistColoring {
            color: Vec::new(),
            u_cur: Vec::new(),
            u_pos: 0,
            phase: 0,
            state: PState::Coloring,
            phases_executed: 0,
            total_recolored: 0,
            // Over no ranks until the index is built.
            exchange: NeighborExchange::new(cfg.comm, dg.rank, 0, &[]),
            done: DoneWave::new(),
            allreduce: TreeAllreduce::new(dg.rank, dg.num_ranks, 8),
            my_conflicts: 0,
            first_fit: FirstFit::default(),
            scope: S::default(),
            cfg,
            dg,
        }
    }

    /// Builds the rank-local index over the slice — the exchange over
    /// the neighbour ranks, the colour array and the scope's per-vertex
    /// state — as a fresh rank's. Charges no work: it
    /// is set-up, not protocol.
    fn build_index(&mut self) {
        let n_total = self.dg.n_total();
        self.exchange = NeighborExchange::new(
            self.cfg.comm,
            self.dg.rank,
            self.dg.num_ranks,
            &self.dg.neighbor_ranks,
        );
        self.color = vec![UNCOLORED; n_total];
        self.scope = S::new(&self.dg);
    }

    /// Colour of local index `i`; `UNCOLORED` on a never-started rank.
    fn color_of(&self, i: usize) -> u32 {
        self.color.get(i).copied().unwrap_or(UNCOLORED)
    }

    /// Access to the distributed graph.
    pub fn dist_graph(&self) -> &DistGraph {
        &self.dg
    }

    /// `true` once the rank has passed the final conflict-free allreduce
    /// and left the phase protocol. A rank that stops stepping while this
    /// is `false` was abandoned mid-phase (e.g. a lost message); the
    /// `cmg-check` termination oracle asserts it after every run.
    pub fn is_finished(&self) -> bool {
        self.state == PState::Finished
    }

    /// Largest color used on this rank's owned vertices (`None` if the
    /// rank owns nothing).
    pub fn max_local_color(&self) -> Option<u32> {
        (0..self.dg.n_local).map(|v| self.color_of(v)).max()
    }

    /// Sends `(v, color)` per the communication variant: FIAB broadcasts,
    /// the customized schemes publish to the owners of `v`'s ghost
    /// neighbors (once each).
    fn publish_color(&mut self, v: u32, c: u32, ctx: &mut RankCtx<ColorMsg>) {
        let msg = ColorMsg::Color {
            v: self.dg.global_ids[v as usize],
            color: c,
        };
        self.exchange
            .publish(ctx, ghost_neighbor_owners(&self.dg, v), &msg);
    }

    /// Runs one superstep: colors up to `s` vertices of `u_cur` and
    /// publishes their colors. Once the phase's coloring is complete,
    /// announces DONE and detects if every peer's DONE is in already.
    fn superstep(&mut self, ctx: &mut RankCtx<ColorMsg>) {
        let end = (self.u_pos + self.cfg.superstep_size.max(1)).min(self.u_cur.len());
        self.exchange.begin_superstep();
        while self.u_pos < end {
            let v = self.u_cur[self.u_pos];
            self.u_pos += 1;
            let c = S::pick_color(self, v, ctx);
            self.color[v as usize] = c;
            self.publish_color(v, c, ctx);
        }
        // FIAC: every other rank gets a (possibly empty) customized
        // message each superstep.
        self.exchange.finish_superstep(ctx, &ColorMsg::Empty);
        if self.u_pos >= self.u_cur.len() {
            let done = ColorMsg::Done { phase: self.phase };
            fan_out(ctx, self.exchange.peers(), &done);
            self.state = PState::WaitingDone;
            self.try_detect(ctx);
        }
    }

    /// Whether owned `v` loses the tie-break to a ghost neighbor of its
    /// color (charging its degree): the distance-1 conflict test.
    fn loses_to_ghost(&self, v: u32, ctx: &mut RankCtx<ColorMsg>) -> bool {
        ctx.charge(self.dg.degree(v) as u64);
        let cv = self.color[v as usize];
        let key = |w| priority_key(&self.dg, self.cfg.seed, w);
        let kv = key(v);
        self.dg
            .neighbors(v)
            .iter()
            .any(|&w| self.dg.is_ghost(w) && self.color[w as usize] == cv && key(w) > kv)
    }

    /// Ends the phase's detection: `losers` are this rank's vertices to
    /// re-color next phase, and their count is its allreduce input.
    fn conclude_detection(&mut self, losers: Vec<u32>, ctx: &mut RankCtx<ColorMsg>) {
        self.my_conflicts = losers.len() as u64;
        self.total_recolored += self.my_conflicts;
        ctx.emit(|| cmg_obs::Event::ColoringRound {
            phase: self.phase,
            conflicts: self.my_conflicts,
            colors_used: self.colors_used_so_far(),
        });
        self.u_cur = losers;
        self.u_pos = 0;
        self.state = PState::WaitingReduce;
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

    /// Sends the subtree count up (or broadcasts at the root) once this
    /// rank's detection and all children's counts are in.
    fn try_send_reduce(&mut self, ctx: &mut RankCtx<ColorMsg>) {
        if self.state != PState::WaitingReduce {
            return;
        }
        match self.allreduce.try_complete(self.phase, self.my_conflicts) {
            None => {}
            Some(ReduceOutcome::ToParent { parent, value }) => {
                ctx.send(
                    parent,
                    &ColorMsg::Reduce {
                        phase: self.phase,
                        count: value,
                    },
                );
                self.state = PState::WaitingBcast;
            }
            Some(ReduceOutcome::Root { value }) => {
                // Root: the global count is known; broadcast and act.
                self.broadcast_and_act(value, ctx);
            }
        }
    }

    /// Forwards the global count to children and starts the next phase or
    /// finishes.
    fn broadcast_and_act(&mut self, total: u64, ctx: &mut RankCtx<ColorMsg>) {
        let msg = ColorMsg::Bcast {
            phase: self.phase,
            count: total,
        };
        fan_out(ctx, self.allreduce.children().iter().copied(), &msg);
        self.done.clear(self.phase);
        if total == 0 {
            self.state = PState::Finished;
        } else {
            self.phase += 1;
            self.phases_executed += 1;
            self.my_conflicts = 0;
            self.state = PState::Coloring;
            self.superstep(ctx);
        }
    }

    /// Runs conflict detection once every peer's DONE for the current
    /// phase has arrived (and our own coloring is finished).
    fn try_detect(&mut self, ctx: &mut RankCtx<ColorMsg>) {
        let peers = self.exchange.peer_count();
        if self.state == PState::WaitingDone && self.done.ready(self.phase, peers) {
            S::detect(self, ctx);
        }
    }

    fn handle(&mut self, msg: ColorMsg, ctx: &mut RankCtx<ColorMsg>) {
        ctx.charge(1);
        match msg {
            ColorMsg::Color { v, color } => {
                // Under FIAB the vertex may be unknown here; ignore then.
                if let Some(local) = self.dg.local(v) {
                    self.color[local as usize] = color;
                    self.scope.ghost_colored(local);
                }
            }
            ColorMsg::Empty => {}
            ColorMsg::Done { phase } => {
                self.done.record(phase);
                self.try_detect(ctx);
            }
            ColorMsg::Reduce { phase, count } => {
                self.allreduce.absorb_child(phase, count);
                self.try_send_reduce(ctx);
            }
            ColorMsg::Bcast { phase, count } => {
                debug_assert_eq!(phase, self.phase);
                debug_assert_eq!(self.state, PState::WaitingBcast);
                self.broadcast_and_act(count, ctx);
            }
            ColorMsg::Done2 { .. } | ColorMsg::Recolor { .. } => S::on_detect_msg(self, msg, ctx),
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

impl<S: ConflictScope> LocalColors for DistColoring<S> {
    fn local_colors(&self) -> impl Iterator<Item = (VertexId, u32)> + '_ {
        (0..self.dg.n_local).map(|v| (self.dg.global_ids[v], self.color_of(v)))
    }
}

impl<S: ConflictScope> RankProgram for DistColoring<S> {
    type Msg = ColorMsg;
    type Record = ColorSnap;
    type Meta = (DistGraph, ColoringConfig);

    fn snapshot(&self) -> Vec<ColorSnap> {
        let mut recs = Vec::with_capacity(1 + self.dg.n_total() + self.u_cur.len());
        let detection_done = matches!(
            self.state,
            PState::WaitingDone2 | PState::WaitingReduce | PState::WaitingBcast | PState::Finished
        );
        recs.push(ColorSnap::Head {
            phase: self.phase,
            state: self.state.to_u8(),
            phases_executed: self.phases_executed,
            total_recolored: self.total_recolored,
            flags: (detection_done as u8) | (((self.phases_executed > 0) as u8) << 1),
            my_conflicts: self.my_conflicts,
            u_pos: self.u_pos as u64,
        });
        for (idx, &color) in self.color.iter().enumerate() {
            if color != UNCOLORED {
                recs.push(ColorSnap::Colored {
                    idx: idx as u32,
                    color,
                });
            }
        }
        for &v in &self.u_cur {
            recs.push(ColorSnap::Pending { v });
        }
        self.scope.snapshot(&mut recs);
        for &(phase, count) in self.done.in_flight() {
            recs.push(ColorSnap::DoneCount {
                phase,
                count: count as u64,
            });
        }
        for &(phase, count, value) in self.allreduce.in_flight() {
            recs.push(ColorSnap::Reduce {
                phase,
                count: count as u64,
                value,
            });
        }
        recs
    }

    /// Builds the index itself (a resumed rank gets no `on_start`), then
    /// applies the records.
    fn restore(meta: (DistGraph, ColoringConfig), snap: Vec<ColorSnap>) -> Self {
        let (dg, cfg) = meta;
        let mut p = Self::from_slice(dg, cfg);
        p.build_index();
        let mut done = Vec::new();
        let mut reduce = Vec::new();
        let mut scoped = Vec::new();
        for rec in snap {
            match rec {
                ColorSnap::Head {
                    phase,
                    state,
                    phases_executed,
                    total_recolored,
                    flags: _,
                    my_conflicts,
                    u_pos,
                } => {
                    p.phase = phase;
                    p.state = PState::from_u8(state);
                    p.phases_executed = phases_executed;
                    p.total_recolored = total_recolored;
                    p.my_conflicts = my_conflicts;
                    p.u_pos = u_pos as usize;
                }
                ColorSnap::Colored { idx, color } => p.color[idx as usize] = color,
                ColorSnap::Pending { v } => p.u_cur.push(v),
                ColorSnap::DoneCount { phase, count } => done.push((phase, count as usize)),
                ColorSnap::Reduce {
                    phase,
                    count,
                    value,
                } => reduce.push((phase, count as usize, value)),
                other => scoped.push(other),
            }
        }
        p.done.restore_in_flight(done);
        p.allreduce.restore_in_flight(reduce);
        p.scope.restore(scoped);
        p
    }

    fn meta(&self) -> (DistGraph, ColoringConfig) {
        (self.dg.clone(), self.cfg)
    }

    fn on_start(&mut self, ctx: &mut RankCtx<ColorMsg>) -> Status {
        self.build_index();
        S::first_phase(self, ctx);
        self.phases_executed = 1;
        self.superstep(ctx);
        self.status()
    }

    fn on_round(
        &mut self,
        inbox: &mut Vec<(Rank, Vec<ColorMsg>)>,
        ctx: &mut RankCtx<ColorMsg>,
    ) -> Status {
        for (_, msgs) in inbox.drain(..) {
            for m in msgs {
                self.handle(m, ctx);
            }
        }
        if self.state == PState::Coloring {
            self.superstep(ctx);
        }
        self.status()
    }
}

/// The `(r(v), global id)` key of local index `v`: the smaller key loses
/// a conflict, and in Jones–Plassmann the larger colours first. `r(v)`
/// hashes the global id each time it is read: a table of it would hold
/// 8 B per local index.
pub(crate) fn priority_key(dg: &DistGraph, seed: u64, v: u32) -> (u64, VertexId) {
    let g = dg.global_ids[v as usize];
    (vertex_priority(u64::from(g), seed), g)
}

/// The owned vertices whose `is_boundary` flag is `boundary`, ascending.
fn owned_where(dg: &DistGraph, boundary: bool) -> impl Iterator<Item = u32> + '_ {
    (0..dg.n_local as u32).filter(move |&v| dg.is_boundary[v as usize] == boundary)
}

/// Distance-1 coloring, the paper's algorithm: the neighbors forbid a
/// color, first-fit picks the smallest free one, and each vertex colored
/// this phase is checked against its ghost neighbors. It keeps no state of
/// its own.
#[derive(Default)]
pub struct Distance1;

impl ConflictScope for Distance1 {
    fn pick_color(p: &mut DistColoring<Self>, v: u32, ctx: &mut RankCtx<ColorMsg>) -> u32 {
        ctx.charge(p.dg.degree(v) as u64 + 1);
        for &u in p.dg.neighbors(v) {
            p.first_fit.take(p.color[u as usize]);
        }
        p.first_fit.pick()
    }

    /// Colors the interior up front, purely locally; the phases then
    /// color the boundary.
    fn first_phase(p: &mut DistColoring<Self>, ctx: &mut RankCtx<ColorMsg>) {
        for v in 0..p.dg.n_local as u32 {
            if !p.dg.is_boundary[v as usize] {
                p.color[v as usize] = Self::pick_color(p, v, ctx);
            }
        }
        let mut u_cur = Vec::with_capacity(owned_where(&p.dg, true).count());
        u_cur.extend(owned_where(&p.dg, true));
        p.u_cur = u_cur;
        p.u_pos = 0;
    }

    fn detect(p: &mut DistColoring<Self>, ctx: &mut RankCtx<ColorMsg>) {
        let losers = p
            .u_cur
            .iter()
            .copied()
            .filter(|&v| p.loses_to_ghost(v, ctx))
            .collect();
        p.conclude_detection(losers, ctx);
    }
}

/// Distance-2 coloring: the neighbors, the two-hop colors seen through
/// owned middles and the learned bans forbid a color, a backoff window
/// picks one, and conflicts are relay-detected by the middle's owner.
#[derive(Default)]
pub struct Distance2 {
    /// Permanently banned `(owned vertex, color)` pairs (learned
    /// constraints): appended as losses arrive, sorted and deduplicated
    /// when detection concludes, so every pick reads a sorted list.
    learned: Vec<(u32, u32)>,
    /// Ghosts whose color changed this phase.
    dirty_ghosts: Vec<u32>,
    /// Next phase's re-color set (dedup via `in_r`); remote `Recolor`s
    /// may grow it until the `Done2` wave closes.
    recolor: Vec<u32>,
    in_r: Vec<bool>,
    /// The second wave: every peer's `Recolor`s for the phase are out.
    done2: DoneWave,
}

impl Distance2 {
    /// Adds owned vertex `v` to next phase's re-color set, banning `c`.
    fn mark_loser(&mut self, v: u32, c: u32) {
        self.learned.push((v, c));
        if !self.in_r[v as usize] {
            self.in_r[v as usize] = true;
            self.recolor.push(v);
        }
    }

    /// After `Done2` from every peer the re-color set is final: the
    /// earliest point at which the phase's conflict count is known.
    fn try_conclude(p: &mut DistColoring<Self>, ctx: &mut RankCtx<ColorMsg>) {
        let peers = p.exchange.peer_count();
        if p.state != PState::WaitingDone2 || !p.scope.done2.ready(p.phase, peers) {
            return;
        }
        p.scope.done2.clear(p.phase);
        // Every peer's `Recolor`s for the phase came before its `Done2`,
        // and the next pick comes after this: the bans are complete.
        p.scope.learned.sort_unstable();
        p.scope.learned.dedup();
        let mut losers = std::mem::take(&mut p.scope.recolor);
        for &v in &losers {
            p.scope.in_r[v as usize] = false;
        }
        // The set grew in `Recolor` arrival order; the next phase colours
        // in list order, so sorting makes the answer order-free.
        losers.sort_unstable();
        p.conclude_detection(losers, ctx);
    }
}

impl ConflictScope for Distance2 {
    fn new(dg: &DistGraph) -> Self {
        Distance2 {
            learned: Vec::new(),
            dirty_ghosts: Vec::new(),
            recolor: Vec::new(),
            in_r: vec![false; dg.n_local],
            done2: DoneWave::new(),
        }
    }

    /// Forbids distance-1 colors, distance-2 colors visible through
    /// *owned* middles, and the learned bans. A color at or above
    /// `n_total + 2` forbids nothing: the pinned distance-2 answers were
    /// made under that bound, and honouring such colors moves them.
    fn pick_color(p: &mut DistColoring<Self>, v: u32, ctx: &mut RankCtx<ColorMsg>) -> u32 {
        let clip = p.dg.n_total() + 2;
        let first_fit = &mut p.first_fit;
        let mut take = |c: u32| {
            if (c as usize) < clip {
                first_fit.take(c);
            }
        };
        let mut work = 1u64;
        for &u in p.dg.neighbors(v) {
            work += 1;
            take(p.color[u as usize]);
            if !p.dg.is_ghost(u) {
                for &w in p.dg.neighbors(u) {
                    work += 1;
                    if w != v {
                        take(p.color[w as usize]);
                    }
                }
            }
        }
        let learned = &p.scope.learned;
        let start = learned.partition_point(|&(u, _)| u < v);
        let end = learned.partition_point(|&(u, _)| u <= v);
        for &(_, c) in &learned[start..end] {
            take(c);
        }
        ctx.charge(work);
        // Randomized backoff (the standard escape from speculative-d2
        // lockstep): a vertex that has lost `l` conflicts picks uniformly
        // (hash-seeded, deterministic) among its first `l + 1` permissible
        // colors instead of strictly first-fit. The window must keep
        // widening with losses: high-multiplicity conflict sets (e.g. a
        // star's leaves, all pairwise at distance 2) need a window as
        // large as the set to separate in few phases.
        let window = (end - start) as u64 + 1;
        let key = (p.dg.global_ids[v as usize] as u64) ^ ((p.phase as u64) << 32);
        let nth = vertex_priority(key, p.cfg.seed) % window;
        p.first_fit.pick_nth(nth)
    }

    /// Interior, then boundary, all in supersteps: the boundary's
    /// speculative colors settle against the already-colored interior.
    fn first_phase(p: &mut DistColoring<Self>, _ctx: &mut RankCtx<ColorMsg>) {
        let mut u_cur = Vec::with_capacity(p.dg.n_local);
        u_cur.extend(owned_where(&p.dg, false).chain(owned_where(&p.dg, true)));
        p.u_cur = u_cur;
        p.u_pos = 0;
    }

    /// Distance-1 checks against ghosts for the vertices colored this
    /// phase, and distance-2 relay detection through owned middles
    /// touched by this phase's color changes; then the `Done2` wave.
    fn detect(p: &mut DistColoring<Self>, ctx: &mut RankCtx<ColorMsg>) {
        // Dirty set: owned vertices colored this phase + updated ghosts.
        let mut dirty_mark = vec![false; p.dg.n_total()];
        for &d in p.u_cur.iter().chain(&p.scope.dirty_ghosts) {
            dirty_mark[d as usize] = true;
        }
        p.scope.dirty_ghosts.clear();

        for i in 0..p.u_cur.len() {
            let v = p.u_cur[i];
            if p.loses_to_ghost(v, ctx) {
                let cv = p.color[v as usize];
                p.scope.mark_loser(v, cv);
            }
        }

        for m in 0..p.dg.n_local {
            let std::ops::Range { start: lo, end: hi } = p.dg.row(m as u32);
            // Skip middles with no dirty neighbor (cheap scan).
            let any_dirty = p.dg.adj[lo..hi].iter().any(|&u| dirty_mark[u as usize]);
            ctx.charge((hi - lo) as u64);
            if !any_dirty {
                continue;
            }
            for ia in lo..hi {
                let a = p.dg.adj[ia];
                let ca = p.color[a as usize];
                if !dirty_mark[a as usize] || ca == UNCOLORED {
                    continue;
                }
                for ib in lo..hi {
                    ctx.charge(1);
                    let b = p.dg.adj[ib];
                    if b == a || p.color[b as usize] != ca {
                        continue;
                    }
                    // Conflict pair (a, b) through middle m: the smaller
                    // key loses.
                    let key = |w| priority_key(&p.dg, p.cfg.seed, w);
                    let loser = if key(a) < key(b) { a } else { b };
                    if p.dg.is_ghost(loser) {
                        let msg = ColorMsg::Recolor {
                            v: p.dg.global_ids[loser as usize],
                            banned: ca,
                        };
                        ctx.send(p.dg.owner(loser), &msg);
                    } else {
                        p.scope.mark_loser(loser, ca);
                    }
                }
            }
        }

        fan_out(ctx, p.exchange.peers(), &ColorMsg::Done2 { phase: p.phase });
        p.state = PState::WaitingDone2;
        Distance2::try_conclude(p, ctx);
    }

    fn on_detect_msg(p: &mut DistColoring<Self>, msg: ColorMsg, ctx: &mut RankCtx<ColorMsg>) {
        match msg {
            ColorMsg::Done2 { phase } => {
                p.scope.done2.record(phase);
                Distance2::try_conclude(p, ctx);
            }
            ColorMsg::Recolor { v, banned } => {
                // Known in a valid run; drop a message naming a vertex
                // this rank does not hold.
                if let Some(local) = p.dg.local(v) {
                    debug_assert!(!p.dg.is_ghost(local));
                    p.scope.mark_loser(local, banned);
                }
            }
            _ => {}
        }
    }

    fn ghost_colored(&mut self, local: u32) {
        self.dirty_ghosts.push(local);
    }

    fn snapshot(&self, recs: &mut Vec<ColorSnap>) {
        // Mid-detection the list may hold this phase's bans unsorted.
        let mut bans = self.learned.clone();
        bans.sort_unstable();
        bans.dedup();
        recs.extend(
            bans.into_iter()
                .map(|(v, color)| ColorSnap::Banned { v, color }),
        );
        recs.extend(
            self.dirty_ghosts
                .iter()
                .map(|&idx| ColorSnap::DirtyGhost { idx }),
        );
        recs.extend(self.recolor.iter().map(|&v| ColorSnap::Recolor { v }));
        for &(phase, count) in self.done2.in_flight() {
            recs.push(ColorSnap::Done2Count {
                phase,
                count: count as u64,
            });
        }
    }

    fn restore(&mut self, recs: Vec<ColorSnap>) {
        let mut done2 = Vec::new();
        for rec in recs {
            match rec {
                ColorSnap::Banned { v, color } => self.learned.push((v, color)),
                ColorSnap::DirtyGhost { idx } => self.dirty_ghosts.push(idx),
                ColorSnap::Recolor { v } => {
                    self.in_r[v as usize] = true;
                    self.recolor.push(v);
                }
                ColorSnap::Done2Count { phase, count } => done2.push((phase, count as usize)),
                _ => {}
            }
        }
        self.done2.restore_in_flight(done2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coloring::{assemble_coloring, Coloring};
    use crate::distance2::{greedy_d2, validate_d2};
    use crate::seq::Ordering;
    use cmg_graph::generators::{circuit_like, complete, erdos_renyi, grid2d, star};
    use cmg_graph::CsrGraph;
    use cmg_partition::simple::{block_partition, grid2d_partition, hash_partition};
    use cmg_partition::Partition;
    use cmg_runtime::{CostModel, EngineConfig, SimEngine};

    /// Runs `programs` to quiescence with compute-only costs and returns
    /// the coloring, the stats and the slowest rank's phase count.
    fn run<S: ConflictScope + 'static>(
        programs: Vec<DistColoring<S>>,
        n: usize,
    ) -> (Coloring, cmg_runtime::RunStats, u32) {
        let cfg = EngineConfig {
            cost: CostModel::compute_only(),
            max_rounds: 100_000,
            ..Default::default()
        };
        let result = SimEngine::new(programs, cfg).run();
        assert!(!result.hit_round_cap, "coloring did not quiesce");
        let phases = result
            .programs
            .iter()
            .map(|p| p.phases_executed)
            .max()
            .unwrap_or(0);
        (assemble_coloring(&result.programs, n), result.stats, phases)
    }

    fn run_coloring(
        g: &CsrGraph,
        partition: &Partition,
        cfg: ColoringConfig,
    ) -> (Coloring, cmg_runtime::RunStats, u32) {
        let programs = DistGraph::build_all(g, partition)
            .into_iter()
            .map(|dg| DistColoring::new(dg, cfg))
            .collect();
        run(programs, g.num_vertices())
    }

    fn run_d2(g: &CsrGraph, partition: &Partition, s: usize) -> (Coloring, u32) {
        let programs = DistGraph::build_all(g, partition)
            .into_iter()
            .map(|dg| DistColoring::distance2(dg, s, 99))
            .collect();
        let (c, _, phases) = run(programs, g.num_vertices());
        (c, phases)
    }

    #[test]
    fn message_codec_round_trip() {
        use cmg_runtime::WireMessage;
        let msgs = [
            ColorMsg::Color { v: 3, color: 9 },
            ColorMsg::Empty,
            ColorMsg::Done { phase: 4 },
            ColorMsg::Reduce { phase: 1, count: 7 },
            ColorMsg::Bcast { phase: 2, count: 0 },
            ColorMsg::Done2 { phase: 4 },
            ColorMsg::Recolor { v: 5, banned: 6 },
        ];
        let mut buf = bytes::BytesMut::new();
        for m in &msgs {
            m.encode(&mut buf);
        }
        let decoded: Vec<ColorMsg> = cmg_runtime::message::decode_all(buf.freeze()).unwrap();
        assert_eq!(decoded, msgs);
    }

    #[test]
    fn single_rank_colors_like_sequential_greedy_bound() {
        let g = grid2d(10, 10);
        let (c, _, phases) = run_coloring(&g, &Partition::single(100), ColoringConfig::default());
        c.validate(&g).unwrap();
        assert_eq!(c.num_colors(), 2); // grid is bipartite, natural order
        assert_eq!(phases, 1);
    }

    #[test]
    fn valid_coloring_across_variants_and_rank_counts() {
        let g = erdos_renyi(200, 800, 5);
        for comm in [CommVariant::Neighbor, CommVariant::Fiac, CommVariant::Fiab] {
            for parts in [2u32, 4, 8] {
                let p = hash_partition(g.num_vertices(), parts, 3);
                let cfg = ColoringConfig {
                    comm,
                    superstep_size: 16,
                    ..Default::default()
                };
                let (c, _, phases) = run_coloring(&g, &p, cfg);
                c.validate(&g)
                    .unwrap_or_else(|e| panic!("{comm:?}/{parts}: {e}"));
                assert!(
                    c.num_colors() <= g.max_degree() + 1,
                    "{comm:?}: too many colors"
                );
                assert!(phases <= 10, "{comm:?}: {phases} phases");
            }
        }
    }

    #[test]
    fn neighbor_variant_sends_fewer_packets_than_fiac_and_fiab() {
        let g = grid2d(16, 16);
        let p = grid2d_partition(16, 16, 4, 2);
        let run = |comm| {
            let cfg = ColoringConfig {
                comm,
                superstep_size: 8,
                ..Default::default()
            };
            run_coloring(&g, &p, cfg).1
        };
        let new = run(CommVariant::Neighbor);
        let fiac = run(CommVariant::Fiac);
        let fiab = run(CommVariant::Fiab);
        // §4.2: NEW reduces both the number and the volume of messages.
        assert!(
            new.total_messages() < fiac.total_messages(),
            "NEW {} !< FIAC {}",
            new.total_messages(),
            fiac.total_messages()
        );
        assert!(
            new.total_bytes() < fiab.total_bytes(),
            "NEW {} bytes !< FIAB {}",
            new.total_bytes(),
            fiab.total_bytes()
        );
        assert!(fiac.total_bytes() < fiab.total_bytes());
    }

    #[test]
    fn conflicts_resolved_within_few_phases() {
        // Superstep size 1 with many ranks maximizes speculation; the
        // framework must still converge quickly (paper: ≤ 6 rounds).
        let g = complete(24);
        let p = hash_partition(24, 8, 2);
        let cfg = ColoringConfig {
            superstep_size: 1,
            ..Default::default()
        };
        let (c, _, phases) = run_coloring(&g, &p, cfg);
        c.validate(&g).unwrap();
        assert_eq!(c.num_colors(), 24);
        assert!(phases <= 24, "{phases} phases");
    }

    #[test]
    fn empty_rank_does_not_deadlock() {
        let g = grid2d(1, 3);
        let p = block_partition(3, 4); // rank 3 owns nothing
        let (c, _, _) = run_coloring(&g, &p, ColoringConfig::default());
        c.validate(&g).unwrap();
    }

    #[test]
    fn disconnected_graph() {
        let mut b = cmg_graph::GraphBuilder::new(8);
        b.add_edge_unweighted(0, 1);
        b.add_edge_unweighted(2, 3);
        let g = b.build();
        let p = hash_partition(8, 3, 1);
        let (c, _, _) = run_coloring(&g, &p, ColoringConfig::default());
        c.validate(&g).unwrap();
        assert_eq!(c.num_colors(), 2);
    }

    #[test]
    fn num_colors_close_to_sequential() {
        // §5.2: "the number of colors … in general remained nearly the
        // same as the number used by the underlying serial algorithm."
        let g = circuit_like(3000, 4);
        let seq_colors = crate::seq::greedy(&g, Ordering::Natural).num_colors();
        let p = block_partition(g.num_vertices(), 8);
        let (c, _, _) = run_coloring(&g, &p, ColoringConfig::default());
        c.validate(&g).unwrap();
        assert!(
            c.num_colors() <= seq_colors + 2,
            "dist {} vs seq {seq_colors}",
            c.num_colors()
        );
    }

    #[test]
    fn d2_single_rank_matches_d2_validity() {
        let g = grid2d(8, 8);
        let (c, phases) = run_d2(&g, &Partition::single(64), 1000);
        validate_d2(&c, &g).unwrap();
        assert_eq!(phases, 1);
    }

    #[test]
    fn d2_grid_across_ranks() {
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
    fn d2_random_graph_many_ranks() {
        let g = erdos_renyi(150, 450, 7);
        let p = hash_partition(150, 8, 1);
        let (c, _) = run_d2(&g, &p, 4);
        validate_d2(&c, &g).unwrap();
        assert!(c.num_colors() <= g.max_degree() * g.max_degree() + 1);
    }

    #[test]
    fn d2_star_center_split_from_leaves() {
        // All leaves mutually at distance 2 through the hub: the hub's
        // owner must relay-detect every leaf pair conflict.
        let g = star(20);
        let p = hash_partition(20, 4, 2);
        let (c, _) = run_d2(&g, &p, 2);
        validate_d2(&c, &g).unwrap();
        assert_eq!(c.num_colors(), 20);
    }

    #[test]
    fn d2_circuit_graph() {
        let g = circuit_like(1_000, 11);
        let p = block_partition(g.num_vertices(), 6);
        let (c, phases) = run_d2(&g, &p, 100);
        validate_d2(&c, &g).unwrap();
        assert!(phases <= 8, "{phases} phases");
    }

    #[test]
    fn d2_superstep_one_worst_case_speculation() {
        let g = grid2d(6, 6);
        let p = hash_partition(36, 6, 3);
        let (c, _) = run_d2(&g, &p, 1);
        validate_d2(&c, &g).unwrap();
    }

    #[test]
    fn d2_empty_and_tiny() {
        let g = CsrGraph::empty(3);
        let (c, _) = run_d2(&g, &block_partition(3, 2), 10);
        assert!(c.is_complete());
    }
}
