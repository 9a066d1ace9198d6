//! The resident service state and its warm-start repair loop
//! (DESIGN.md §13).
//!
//! [`ServeState`] is what stays alive between requests: the mutable
//! edge set, the currently served matching and coloring, and the
//! kernels' scratch. Absorbing a mutation batch is a three-step pipeline:
//!
//! 1. **Apply** — the batch lands in the [`MutableGraph`]'s sorted
//!    rows, O(batch · degree). No CSR is packed: the repair kernels read
//!    the mutable graph directly through
//!    [`NeighborView`](cmg_graph::NeighborView).
//! 2. **Invalidate** — [`MatchFrontier::invalidate`] and
//!    [`ColorFrontier::invalidate`] undo, directly in the resident
//!    `mate` / `colors` vectors, exactly the decisions the mutations
//!    can possibly have broken, and leave the vertices that must
//!    re-decide as a list in scratch this state owns.
//! 3. **Repair** — [`MatchFrontier::repair`] and
//!    [`ColorFrontier::repair`] re-decide that list in place,
//!    O(frontier · degree). Clean decisions are never revisited, no
//!    n-vector is copied, scanned or allocated — steps 2–3 allocate
//!    nothing once the scratch has grown to the largest frontier seen —
//!    and that is what buys the order-of-magnitude repair-vs-recompute
//!    gap the serve bench demands, at any graph size.
//!
//! No undo log is needed for the in-place steps: the only fallible
//! step, [`MutableGraph::apply`], validates the whole batch and runs
//! first, so a rejected batch returns before anything resident is
//! touched; and when invalidation lands past the dirtiness threshold,
//! the recompute that follows overwrites both vectors wholesale.
//!
//! Past a configurable dirtiness threshold the warm start stops
//! paying (the frontier *is* the graph) and the batch falls through
//! to a full recompute (the matching invalidation stops where its
//! frontier crosses the threshold, and the coloring one is skipped):
//! [`MatchFrontier::cold`] and [`ColorFrontier::cold`] on the resident
//! rows — the same kernels with the whole graph as their frontier, in
//! O(n + m), with no repack, no partition and no engine.
//!
//! **Consistency bar** (DESIGN.md §13): after any mutation stream the
//! served matching is a valid locally-dominant matching of the final
//! graph (½-approx certificate) and the served coloring is proper.
//! The repaired matching equals the from-scratch one bit-for-bit, ties
//! included. A recompute serves the greedy first-fit coloring in
//! natural vertex order; a repaired coloring is proper but may use a
//! different palette than a recompute would — bit-identity across the
//! repair/recompute boundary is explicitly relaxed.

use crate::protocol::RepairAck;
use cmg_coloring::coloring::UNCOLORED;
use cmg_coloring::{ColorFrontier, Coloring, ColoringConfig};
use cmg_graph::{ApplyOutcome, CsrGraph, MutableGraph, MutationBatch, VertexId, NO_VERTEX};
use cmg_matching::{MatchFrontier, Matching};
use cmg_net::NetError;

/// How the service absorbs mutations.
pub struct ServeConfig {
    /// Coloring configuration: its `seed` drives the conflict-loser
    /// rule the repair's invalidation uses.
    pub coloring: ColoringConfig,
    /// Fraction of vertices dirty (matching or coloring) above which
    /// a batch is absorbed by full recompute instead of repair.
    pub recompute_threshold: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            coloring: ColoringConfig::default(),
            recompute_threshold: 0.25,
        }
    }
}

/// How one batch was absorbed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepairMode {
    /// Warm-start repair: only the dirty frontier re-decided.
    Repair,
    /// Full recompute: dirtiness crossed the threshold.
    Recompute,
}

/// Per-batch repair report (the `MutateAck` payload's source).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RepairReport {
    /// Repair or full recompute.
    pub mode: RepairMode,
    /// What the batch changed in the edge set.
    pub applied: ApplyOutcome,
    /// Vertices the matching pass re-decided: `n` on a recompute.
    pub dirty_matching: usize,
    /// Vertices the coloring pass re-decided (same convention).
    pub dirty_coloring: usize,
}

impl RepairReport {
    /// The wire ack for this report. `micros` is measured by the
    /// server around the whole absorb (apply through rerun).
    pub fn ack(&self, micros: u64) -> RepairAck {
        RepairAck::Done {
            mode: match self.mode {
                RepairMode::Repair => 0,
                RepairMode::Recompute => 1,
            },
            dirty_matching: self.dirty_matching as u64,
            dirty_coloring: self.dirty_coloring as u64,
            match_rounds: 0,
            color_rounds: 0,
            micros,
        }
    }
}

/// The state a serving process keeps resident between requests.
pub struct ServeState {
    cfg: ServeConfig,
    mg: MutableGraph,
    mate: Vec<VertexId>,
    colors: Vec<u32>,
    /// The kernels' reusable scratch; after a repair they hold the
    /// frontier it re-decided.
    match_frontier: MatchFrontier,
    color_frontier: ColorFrontier,
    /// The smallest frontier `dirty / n > recompute_threshold` sends to
    /// recompute (`n + 1`: none does).
    recompute_at: usize,
    /// Lifetime counters, served by the Summary query.
    pub batches: u64,
    /// Batches absorbed by warm-start repair.
    pub repairs: u64,
    /// Batches absorbed by full recompute.
    pub recomputes: u64,
}

impl ServeState {
    /// Loads `g0` and computes the initial matching and coloring cold.
    /// A graph without vertices is refused: a full-vector reply lists
    /// at least one record.
    pub fn new(g0: &CsrGraph, cfg: ServeConfig) -> Result<ServeState, NetError> {
        if g0.num_vertices() == 0 {
            return Err(NetError::protocol("cannot serve a graph with no vertices"));
        }
        let n = g0.num_vertices();
        let recompute_at = (0..=n)
            .find(|&dirty| dirty as f64 / n as f64 > cfg.recompute_threshold)
            .unwrap_or(n + 1);
        let mut state = ServeState {
            mg: MutableGraph::from_csr(g0),
            mate: vec![NO_VERTEX; n],
            colors: vec![UNCOLORED; n],
            match_frontier: MatchFrontier::with_limit(n, recompute_at),
            color_frontier: ColorFrontier::default(),
            recompute_at,
            cfg,
            batches: 0,
            repairs: 0,
            recomputes: 0,
        };
        state.recompute();
        Ok(state)
    }

    /// The graph currently served, packed into CSR form (O(n + m)).
    pub fn graph(&self) -> CsrGraph {
        self.mg.rebuild()
    }

    /// Number of vertices (fixed for the service lifetime).
    pub fn num_vertices(&self) -> usize {
        self.mg.num_vertices()
    }

    /// Number of undirected edges currently present.
    pub fn num_edges(&self) -> usize {
        self.mg.num_edges()
    }

    /// Total weight of the served matching on the current graph.
    pub fn matched_weight(&self) -> f64 {
        let mut total = 0.0;
        for (u, &m) in self.mate.iter().enumerate() {
            if m != NO_VERTEX && (u as VertexId) < m {
                total += self.mg.edge_weight(u as VertexId, m).unwrap_or(0.0);
            }
        }
        total
    }

    /// Matched pairs in the served matching.
    pub(crate) fn matched_pairs(&self) -> usize {
        self.mate.iter().filter(|&&m| m != NO_VERTEX).count() / 2
    }

    /// Colors in use by the served coloring (which is always complete).
    pub fn num_colors(&self) -> usize {
        self.colors.iter().max().map_or(0, |&c| c as usize + 1)
    }

    /// The matching currently served.
    pub fn matching(&self) -> Matching {
        Matching::from_mates(self.mate.clone())
    }

    /// The coloring currently served.
    pub fn coloring(&self) -> Coloring {
        Coloring::from_colors(self.colors.clone())
    }

    /// The served mate vector, in place.
    pub(crate) fn mates(&self) -> &[VertexId] {
        &self.mate
    }

    /// The served colour vector, in place.
    pub(crate) fn colors(&self) -> &[u32] {
        &self.colors
    }

    /// Current mate of `v` (`NO_VERTEX` = unmatched).
    pub fn mate_of(&self, v: VertexId) -> VertexId {
        self.mate[v as usize]
    }

    /// Current color of `v`.
    pub fn color_of(&self, v: VertexId) -> u32 {
        self.colors[v as usize]
    }

    /// Absorbs one mutation batch: apply, invalidate, repair (or
    /// recompute past the dirtiness threshold). On a rejected batch
    /// (`Err` = invalid mutation) the graph and served results are
    /// untouched.
    pub fn apply(&mut self, batch: &MutationBatch) -> Result<RepairReport, String> {
        let applied = self.mg.apply(batch)?;
        self.batches += 1;

        // The kernels read the mutable adjacency directly and write the
        // resident vectors in place — no CSR repack, no n-vector copy.
        let seed = self.cfg.coloring.seed;
        // Warm invalidate: in place, recycled scratch. Matching's stops
        // at `recompute_at`, and then colouring's is not needed.
        let recompute = self
            .match_frontier
            .invalidate(&self.mg, &mut self.mate, batch)
            || {
                self.color_frontier
                    .invalidate(&self.mg, &mut self.colors, batch, seed);
                self.color_frontier.vertices().len() >= self.recompute_at
            };

        let (mode, dirty_matching, dirty_coloring) = if recompute {
            self.recomputes += 1;
            self.recompute();
            let n = self.mg.num_vertices();
            (RepairMode::Recompute, n, n)
        } else {
            self.repairs += 1;
            // Warm repair: in place, recycled scratch.
            self.match_frontier.repair(&self.mg, &mut self.mate);
            self.color_frontier.repair(&self.mg, &mut self.colors, seed);
            let dirty_matching = self.match_frontier.vertices().len();
            let dirty_coloring = self.color_frontier.vertices().len();
            (RepairMode::Repair, dirty_matching, dirty_coloring)
        };

        Ok(RepairReport {
            mode,
            applied,
            dirty_matching,
            dirty_coloring,
        })
    }

    /// From-scratch matching + coloring on the resident rows: each
    /// kernel's cold pass overwrites its whole vector in place. The
    /// matching's scratch is sized at load and the colouring's stamps
    /// grow only with the largest colour seen, so a recompute allocates
    /// nothing unless it uses a colour no earlier pass did.
    fn recompute(&mut self) {
        self.match_frontier.cold(&self.mg, &mut self.mate);
        self.color_frontier.cold(&self.mg, &mut self.colors);
    }
}
