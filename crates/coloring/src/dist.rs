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
//! 3. **conflict detection** — local, no communication: for a conflict
//!    edge, the endpoint with the smaller pre-assigned random priority
//!    `r(v)` is re-colored next phase;
//! 4. a **tree allreduce** of the global conflict count, realizing the
//!    framework's `while ∃j, Uj ≠ ∅` termination test.
//!
//! Interior vertices are colored entirely locally, strictly before or
//! strictly after the boundary (per [`LocalOrder`]), following the
//! recommendation of Bozdağ et al. that the paper adopts.

use crate::coloring::{Coloring, UNCOLORED};
use cmg_graph::util::vertex_priority;
use cmg_graph::VertexId;
use cmg_partition::{ghost_neighbor_owners, DistGraph, HaloView};
use cmg_runtime::{
    fan_out, wire_codec, DoneWave, FanoutScheme, NeighborExchange, Rank, RankCtx, RankProgram,
    ReduceOutcome, Status, TreeAllreduce,
};

/// Communication variant for boundary-color exchange (§4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommVariant {
    /// FIAB: the same message (all colors of the superstep) to every rank.
    Fiab,
    /// FIAC: customized per destination, but sent to every rank (empty
    /// marker when a rank owns no affected neighbor).
    Fiac,
    /// The paper's new scheme: customized messages to neighbor ranks only
    /// — fewer messages *and* less volume.
    Neighbor,
}

impl CommVariant {
    /// The substrate fan-out scheme this variant maps to.
    fn fanout(self) -> FanoutScheme {
        match self {
            CommVariant::Fiab => FanoutScheme::Fiab,
            CommVariant::Fiac => FanoutScheme::Fiac,
            CommVariant::Neighbor => FanoutScheme::Neighbor,
        }
    }
}

/// How a processor chooses a color for a vertex (§4.1's design question).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColorChoice {
    /// Smallest color not used by any neighbor.
    FirstFit,
    /// First-fit scanning from a rank-dependent offset (reduces same-color
    /// collisions between ranks at the price of more colors).
    StaggeredFirstFit,
    /// Least-locally-used permissible color among those seen so far.
    LeastUsed,
}

/// Relative order of interior and boundary coloring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LocalOrder {
    /// Color interior vertices first, then the boundary phases.
    InteriorFirst,
    /// Run the boundary phases first, color interior at the end.
    BoundaryFirst,
}

/// Configuration of the distributed coloring algorithm.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ColoringConfig {
    /// Superstep size `s`: vertices colored between communication steps.
    pub superstep_size: usize,
    /// Communication variant.
    pub comm: CommVariant,
    /// Color-selection strategy.
    pub color_choice: ColorChoice,
    /// Interior/boundary order.
    pub order: LocalOrder,
    /// Seed of the pre-assigned random priority function `r(v)`.
    pub seed: u64,
}

impl Default for ColoringConfig {
    fn default() -> Self {
        ColoringConfig {
            superstep_size: 1000, // the paper's recommendation for
            // well-partitioned graphs
            comm: CommVariant::Neighbor,
            color_choice: ColorChoice::FirstFit,
            order: LocalOrder::InteriorFirst,
            seed: 0x5eed,
        }
    }
}

wire_codec! {
    /// Wire messages of the coloring algorithm.
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
}

impl PState {
    fn to_u8(self) -> u8 {
        match self {
            PState::Coloring => 0,
            PState::WaitingDone => 1,
            PState::WaitingReduce => 2,
            PState::WaitingBcast => 3,
            PState::Finished => 4,
        }
    }

    fn from_u8(b: u8) -> PState {
        match b {
            1 => PState::WaitingDone,
            2 => PState::WaitingReduce,
            3 => PState::WaitingBcast,
            4 => PState::Finished,
            _ => PState::Coloring,
        }
    }
}

wire_codec! {
    /// Snapshot records of [`DistColoring`]: phase-protocol position,
    /// assigned colors (owned and ghost), the phase's remaining work
    /// list, color-usage tallies, and the in-flight state of the DONE
    /// wave and conflict-count allreduce. The halo view, priorities,
    /// stagger offset, fan-out scheme, and stamp scratch are rebuilt
    /// from the graph + config on restore.
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
            /// Bit 0: detection done; bit 1: interior colored.
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
        /// One slot of the LeastUsed usage table, in color order
        /// (zero-count slots included — the table length is state).
        3 => Usage {
            /// Local uses of this color slot.
            count: u64,
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
    }
}

/// One rank's state of the distributed coloring algorithm.
pub struct DistColoring {
    dg: DistGraph,
    cfg: ColoringConfig,
    /// Halo structure: interior/boundary split of the owned vertices.
    halo: HaloView,
    /// Current color per local index (owned + ghost).
    color: Vec<u32>,
    /// Pre-assigned random priority `r(v)` per local index.
    priority: Vec<u64>,
    /// Vertices to (re)color this phase, and progress within them.
    u_cur: Vec<u32>,
    u_pos: usize,
    phase: u32,
    state: PState,
    /// Phases executed so far (the paper's "rounds").
    pub phases_executed: u32,
    /// Total vertices this rank had to re-color due to conflicts.
    pub total_recolored: u64,
    /// Boundary fan-out under the configured communication variant.
    exchange: NeighborExchange,
    /// Per-phase DONE wave (ranks may run one phase ahead).
    done: DoneWave,
    /// Per-phase conflict-count allreduce (8-ary tree: the shallow
    /// fan-out mirrors optimized MPI collectives — Blue Gene/P even has
    /// a dedicated hardware tree network for them).
    allreduce: TreeAllreduce<u64>,
    detection_done: bool,
    my_conflicts: u64,
    interior_colored: bool,
    /// Scratch: stamp-based forbidden-color set.
    forbidden: Vec<u64>,
    stamp: u64,
    /// LeastUsed: local usage count per color.
    usage: Vec<u64>,
    /// StaggeredFirstFit offset.
    stagger: u32,
    /// Warm start ([`DistColoring::warm`]): `on_start` keeps the
    /// pre-seeded retained colors and dirty work list instead of coloring
    /// from scratch. Not snapshotted — it is consumed before the first
    /// round, and restores resume past `on_start`.
    warm: bool,
}

impl DistColoring {
    /// Prepares the program for one rank.
    pub fn new(dg: DistGraph, cfg: ColoringConfig) -> Self {
        let n_total = dg.n_total();
        let priority = (0..n_total)
            .map(|i| vertex_priority(dg.global_ids[i] as u64, cfg.seed))
            .collect();
        let halo = HaloView::build(&dg);
        let max_deg = (0..dg.n_local as u32)
            .map(|v| dg.degree(v))
            .max()
            .unwrap_or(0);
        let stagger = if dg.num_ranks <= 1 {
            0
        } else {
            ((dg.rank as u64 * (max_deg as u64 + 1)) / dg.num_ranks as u64) as u32
        };
        DistColoring {
            color: vec![UNCOLORED; n_total],
            priority,
            halo,
            u_cur: Vec::new(),
            u_pos: 0,
            phase: 0,
            state: PState::Coloring,
            phases_executed: 0,
            total_recolored: 0,
            exchange: NeighborExchange::new(cfg.comm.fanout(), dg.rank, dg.num_ranks),
            done: DoneWave::new(),
            allreduce: TreeAllreduce::new(dg.rank, dg.num_ranks, 8),
            detection_done: false,
            my_conflicts: 0,
            interior_colored: false,
            forbidden: vec![u64::MAX; n_total + 2],
            stamp: 0,
            usage: Vec::new(),
            stagger,
            warm: false,
            cfg,
            dg,
        }
    }

    /// Prepares a warm-start program: retained colors (owned *and* ghost,
    /// from the same global view on every rank, so the halo is consistent
    /// without catch-up messages) are kept, and only the owned vertices
    /// `dirty` deems stale are re-colored — they form the first phase's
    /// work list. The ordinary phase protocol (speculate → DONE wave →
    /// conflict detection → allreduce) then repairs the frontier; clean
    /// vertices are never revisited, so their colors survive verbatim.
    pub fn warm(
        dg: DistGraph,
        cfg: ColoringConfig,
        colors: &[u32],
        dirty: impl Fn(VertexId) -> bool,
    ) -> Self {
        let mut p = DistColoring::new(dg, cfg);
        // Dirty vertices start uncolored everywhere — owned *and* ghost
        // copies — so no rank forbids (or trusts) a stale color; fresh
        // colors of the frontier arrive through the ordinary exchange.
        for i in 0..p.dg.n_total() {
            let g = p.dg.global_ids[i];
            p.color[i] = if dirty(g) {
                UNCOLORED
            } else {
                colors[g as usize]
            };
        }
        p.u_cur = p.halo.dirty_split(&p.dg, &dirty);
        p.u_pos = 0;
        // The retained interior is already colored; broadcast_and_act must
        // not re-color it at the end.
        p.interior_colored = true;
        if cfg.color_choice == ColorChoice::LeastUsed {
            for v in 0..p.dg.n_local {
                let c = p.color[v];
                if c != UNCOLORED {
                    if c as usize >= p.usage.len() {
                        p.usage.resize(c as usize + 1, 0);
                    }
                    p.usage[c as usize] += 1;
                }
            }
        }
        p.warm = true;
        p
    }

    /// Final colors of owned vertices as `(global id, color)`.
    pub fn local_colors(&self) -> impl Iterator<Item = (VertexId, u32)> + '_ {
        (0..self.dg.n_local).map(|v| (self.dg.global_ids[v], self.color[v]))
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

    /// Counts conflict edges visible from this rank, each counted exactly
    /// once globally: owned–owned edges by the smaller local endpoint,
    /// owned–ghost edges by the smaller *global* id. Summing over ranks
    /// therefore validates the whole coloring without the global graph.
    pub fn local_conflict_count(&self) -> usize {
        let mut conflicts = 0;
        for v in 0..self.dg.n_local as u32 {
            let cv = self.color[v as usize];
            let vg = self.dg.global_ids[v as usize];
            for &u in self.dg.neighbors(v) {
                let ug = self.dg.global_ids[u as usize];
                if vg < ug && self.color[u as usize] == cv {
                    conflicts += 1;
                }
            }
        }
        conflicts
    }

    /// Largest color used on this rank's owned vertices (`None` if the
    /// rank owns nothing).
    pub fn max_local_color(&self) -> Option<u32> {
        (0..self.dg.n_local).map(|v| self.color[v]).max()
    }

    /// Ranks in the color/Done communication scope of this rank.
    fn scope(&self) -> Vec<Rank> {
        self.exchange.scope(&self.dg.neighbor_ranks)
    }

    /// Picks a permissible color for owned vertex `v` per the configured
    /// strategy, charging one work unit per adjacency entry scanned.
    fn pick_color(&mut self, v: u32, ctx: &mut RankCtx<ColorMsg>) -> u32 {
        self.stamp += 1;
        let deg = self.dg.degree(v);
        ctx.charge(deg as u64 + 1);
        for &u in self.dg.neighbors(v) {
            let c = self.color[u as usize];
            if c != UNCOLORED && (c as usize) < self.forbidden.len() {
                self.forbidden[c as usize] = self.stamp;
            }
        }
        let first_free_from = |from: u32, forbidden: &[u64], stamp: u64| -> u32 {
            let mut c = from;
            while (c as usize) < forbidden.len() && forbidden[c as usize] == stamp {
                c += 1;
            }
            c
        };
        match self.cfg.color_choice {
            ColorChoice::FirstFit => first_free_from(0, &self.forbidden, self.stamp),
            ColorChoice::StaggeredFirstFit => {
                // Scan from the rank's offset; the offset keeps concurrent
                // ranks on disjoint color ranges, trading color count for
                // fewer conflicts.
                first_free_from(self.stagger, &self.forbidden, self.stamp)
            }
            ColorChoice::LeastUsed => {
                let mut best: Option<(u64, u32)> = None;
                for c in 0..self.usage.len() as u32 {
                    if self.forbidden[c as usize] != self.stamp {
                        let u = self.usage[c as usize];
                        if best.is_none_or(|(bu, _)| u < bu) {
                            best = Some((u, c));
                        }
                    }
                }
                let c = match best {
                    Some((_, c)) => c,
                    None => first_free_from(0, &self.forbidden, self.stamp),
                };
                if c as usize >= self.usage.len() {
                    self.usage.resize(c as usize + 1, 0);
                }
                self.usage[c as usize] += 1;
                c
            }
        }
    }

    /// Colors all interior vertices (purely local).
    fn color_interior(&mut self, ctx: &mut RankCtx<ColorMsg>) {
        for i in 0..self.halo.interior.len() {
            let v = self.halo.interior[i];
            let c = self.pick_color(v, ctx);
            self.color[v as usize] = c;
        }
        self.interior_colored = true;
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
    /// publishes their colors. Returns `true` if the phase's coloring is
    /// complete.
    fn superstep(&mut self, ctx: &mut RankCtx<ColorMsg>) -> bool {
        let end = (self.u_pos + self.cfg.superstep_size.max(1)).min(self.u_cur.len());
        self.exchange.begin_superstep();
        while self.u_pos < end {
            let v = self.u_cur[self.u_pos];
            self.u_pos += 1;
            let c = self.pick_color(v, ctx);
            self.color[v as usize] = c;
            self.publish_color(v, c, ctx);
        }
        // FIAC: every other rank gets a (possibly empty) customized
        // message each superstep.
        self.exchange.finish_superstep(ctx, &ColorMsg::Empty);
        self.u_pos >= self.u_cur.len()
    }

    /// Called when this rank finishes coloring its `u_cur`: announce DONE.
    fn announce_done(&mut self, ctx: &mut RankCtx<ColorMsg>) {
        let msg = ColorMsg::Done { phase: self.phase };
        fan_out(ctx, &self.scope(), &msg);
        self.state = PState::WaitingDone;
    }

    /// Conflict detection (Algorithm 4.1's second block): among the
    /// vertices colored this phase, re-color those that lose the random
    /// tie-break on a conflict edge.
    fn detect_conflicts(&mut self, ctx: &mut RankCtx<ColorMsg>) {
        let mut r_set = Vec::new();
        let u_cur = std::mem::take(&mut self.u_cur);
        for &v in &u_cur {
            ctx.charge(self.dg.degree(v) as u64);
            let cv = self.color[v as usize];
            let pv = (self.priority[v as usize], self.dg.global_ids[v as usize]);
            for &w in self.dg.neighbors(v) {
                if self.dg.is_ghost(w)
                    && self.color[w as usize] == cv
                    && (self.priority[w as usize], self.dg.global_ids[w as usize]) > pv
                {
                    r_set.push(v);
                    break;
                }
            }
        }
        self.my_conflicts = r_set.len() as u64;
        self.total_recolored += self.my_conflicts;
        if ctx.observed() {
            ctx.emit(cmg_obs::Event::ColoringRound {
                phase: self.phase,
                conflicts: self.my_conflicts,
                colors_used: self.colors_used_so_far(),
            });
        }
        self.u_cur = r_set;
        self.u_pos = 0;
        self.detection_done = true;
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
        if !self.detection_done || self.state != PState::WaitingReduce {
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
        fan_out(ctx, self.allreduce.children(), &msg);
        self.done.clear(self.phase);
        if total == 0 {
            if !self.interior_colored {
                self.color_interior(ctx);
            }
            self.state = PState::Finished;
        } else {
            self.phase += 1;
            self.phases_executed += 1;
            self.detection_done = false;
            self.my_conflicts = 0;
            self.state = PState::Coloring;
            if self.superstep(ctx) {
                self.announce_done(ctx);
                self.try_detect(ctx);
            }
        }
    }

    /// Runs conflict detection once every scope rank's DONE for the
    /// current phase has arrived (and our own coloring is finished).
    fn try_detect(&mut self, ctx: &mut RankCtx<ColorMsg>) {
        if self.state != PState::WaitingDone {
            return;
        }
        if self.done.ready(self.phase, self.scope().len()) {
            self.detect_conflicts(ctx);
        }
    }

    fn handle(&mut self, msg: ColorMsg, ctx: &mut RankCtx<ColorMsg>) {
        ctx.charge(1);
        match msg {
            ColorMsg::Color { v, color } => {
                // Under FIAB the vertex may be unknown here; ignore then.
                if let Some(local) = self.dg.local(v) {
                    self.color[local as usize] = color;
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
        }
    }
}

impl RankProgram for DistColoring {
    type Msg = ColorMsg;
    type Snapshot = Vec<ColorSnap>;
    type Meta = (DistGraph, ColoringConfig);

    fn snapshot(&self) -> Vec<ColorSnap> {
        let mut recs = Vec::with_capacity(1 + self.dg.n_total() + self.u_cur.len());
        recs.push(ColorSnap::Head {
            phase: self.phase,
            state: self.state.to_u8(),
            phases_executed: self.phases_executed,
            total_recolored: self.total_recolored,
            flags: (self.detection_done as u8) | ((self.interior_colored as u8) << 1),
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
        for &count in &self.usage {
            recs.push(ColorSnap::Usage { count });
        }
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

    fn restore(meta: (DistGraph, ColoringConfig), snap: Vec<ColorSnap>) -> Self {
        let (dg, cfg) = meta;
        let mut p = DistColoring::new(dg, cfg);
        let mut done = Vec::new();
        let mut reduce = Vec::new();
        for rec in snap {
            match rec {
                ColorSnap::Head {
                    phase,
                    state,
                    phases_executed,
                    total_recolored,
                    flags,
                    my_conflicts,
                    u_pos,
                } => {
                    p.phase = phase;
                    p.state = PState::from_u8(state);
                    p.phases_executed = phases_executed;
                    p.total_recolored = total_recolored;
                    p.detection_done = flags & 1 != 0;
                    p.interior_colored = flags & 2 != 0;
                    p.my_conflicts = my_conflicts;
                    p.u_pos = u_pos as usize;
                }
                ColorSnap::Colored { idx, color } => p.color[idx as usize] = color,
                ColorSnap::Pending { v } => p.u_cur.push(v),
                ColorSnap::Usage { count } => p.usage.push(count),
                ColorSnap::DoneCount { phase, count } => done.push((phase, count as usize)),
                ColorSnap::Reduce {
                    phase,
                    count,
                    value,
                } => reduce.push((phase, count as usize, value)),
            }
        }
        p.done.restore_in_flight(done);
        p.allreduce.restore_in_flight(reduce);
        p
    }

    fn meta(&self) -> (DistGraph, ColoringConfig) {
        (self.dg.clone(), self.cfg)
    }

    fn on_start(&mut self, ctx: &mut RankCtx<ColorMsg>) -> Status {
        if self.warm {
            // Warm start: retained colors and the dirty work list were
            // seeded by [`DistColoring::warm`]; go straight to the phase
            // protocol over the frontier.
            self.warm = false;
        } else {
            if self.cfg.order == LocalOrder::InteriorFirst {
                self.color_interior(ctx);
            }
            self.u_cur = self.halo.boundary.clone();
            self.u_pos = 0;
        }
        self.phases_executed = 1;
        if self.superstep(ctx) {
            self.announce_done(ctx);
            self.try_detect(ctx);
        }
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
        if self.state == PState::Coloring && self.superstep(ctx) {
            self.announce_done(ctx);
            self.try_detect(ctx);
        }
        self.status()
    }
}

impl DistColoring {
    fn status(&self) -> Status {
        if self.state == PState::Coloring && self.u_pos < self.u_cur.len() {
            Status::Active
        } else {
            Status::Idle
        }
    }
}

/// Assembles the global coloring from finished rank programs.
pub fn assemble_coloring(programs: &[DistColoring], num_vertices: usize) -> Coloring {
    let mut coloring = Coloring::uncolored(num_vertices);
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
    use cmg_graph::generators::{circuit_like, complete, erdos_renyi, grid2d};
    use cmg_graph::CsrGraph;
    use cmg_partition::simple::{block_partition, grid2d_partition, hash_partition};
    use cmg_partition::Partition;
    use cmg_runtime::{CostModel, EngineConfig, SimEngine};

    fn free_config() -> EngineConfig {
        EngineConfig {
            cost: CostModel::compute_only(),
            ..Default::default()
        }
    }

    fn run_coloring(
        g: &CsrGraph,
        partition: &Partition,
        cfg: ColoringConfig,
    ) -> (Coloring, cmg_runtime::RunStats, u32) {
        let parts = DistGraph::build_all(g, partition);
        let programs: Vec<DistColoring> = parts
            .into_iter()
            .map(|dg| DistColoring::new(dg, cfg))
            .collect();
        let result = SimEngine::new(programs, free_config()).run();
        assert!(!result.hit_round_cap, "coloring did not quiesce");
        let phases = result
            .programs
            .iter()
            .map(|p| p.phases_executed)
            .max()
            .unwrap_or(0);
        (
            assemble_coloring(&result.programs, g.num_vertices()),
            result.stats,
            phases,
        )
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
    fn color_choices_all_valid() {
        let g = circuit_like(1500, 1);
        let p = block_partition(g.num_vertices(), 6);
        for choice in [
            ColorChoice::FirstFit,
            ColorChoice::StaggeredFirstFit,
            ColorChoice::LeastUsed,
        ] {
            let cfg = ColoringConfig {
                color_choice: choice,
                superstep_size: 50,
                ..Default::default()
            };
            let (c, _, _) = run_coloring(&g, &p, cfg);
            c.validate(&g).unwrap_or_else(|e| panic!("{choice:?}: {e}"));
        }
    }

    #[test]
    fn boundary_first_order_works() {
        let g = grid2d(12, 12);
        let p = grid2d_partition(12, 12, 2, 2);
        let cfg = ColoringConfig {
            order: LocalOrder::BoundaryFirst,
            superstep_size: 8,
            ..Default::default()
        };
        let (c, _, _) = run_coloring(&g, &p, cfg);
        c.validate(&g).unwrap();
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
        let seq_colors = crate::seq::greedy(&g, crate::seq::Ordering::Natural).num_colors();
        let p = block_partition(g.num_vertices(), 8);
        let (c, _, _) = run_coloring(&g, &p, ColoringConfig::default());
        c.validate(&g).unwrap();
        assert!(
            c.num_colors() <= seq_colors + 2,
            "dist {} vs seq {seq_colors}",
            c.num_colors()
        );
    }
}
