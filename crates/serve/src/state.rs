//! The resident service state and its warm-start repair loop
//! (DESIGN.md §13).
//!
//! [`ServeState`] is what stays alive between requests: the mutable
//! edge set, the fixed partition, and the currently served matching
//! and coloring. Absorbing a mutation batch is a three-step pipeline:
//!
//! 1. **Apply** — the batch lands in the [`MutableGraph`]'s adjacency
//!    index, O(batch). No CSR is packed: the repair kernels read the
//!    mutable graph directly through
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
//!    gap the serve bench demands, at any graph size. (The equivalent
//!    *distributed* warm path — each rank reseeded via its
//!    [`WarmStart`](cmg_runtime::WarmStart) impl, engine rerun over
//!    the frontier — remains the multi-rank story and computes the
//!    same matching fixpoint through the same kernels' functional
//!    wrappers.)
//!
//! No undo log is needed for the in-place steps: the only fallible
//! step, [`MutableGraph::apply`], validates the whole batch and runs
//! first, so a rejected batch returns before anything resident is
//! touched; and when invalidation lands past the dirtiness threshold,
//! the recompute that follows overwrites both vectors wholesale.
//!
//! Past a configurable dirtiness threshold the warm start stops
//! paying (the frontier *is* the graph) and the batch falls through
//! to a full recompute: CSR repacked, partition rebuilt, from-scratch
//! engine pass. With a [`NetSession`] attached, those cold runs
//! execute on the resident multi-process fleet — composing with the
//! supervisor's checkpoint recovery — while warm repairs always run
//! in-process, where the tiny frontier finishes before a fleet
//! round-trip would even start.
//!
//! **Consistency bar** (DESIGN.md §13): after any mutation stream the
//! served matching is a valid locally-dominant matching of the final
//! graph (½-approx certificate) and the served coloring is proper.
//! With distinct weights the repaired matching equals the
//! from-scratch one bit-for-bit; the repaired coloring is proper but
//! may use a different palette than a cold run would — bit-identity
//! across the repair/recompute boundary is explicitly relaxed.

use crate::protocol::RepairAck;
use cmg_coloring::{assemble_coloring, ColorFrontier, Coloring, ColoringConfig, DistColoring};
use cmg_graph::{ApplyOutcome, CsrGraph, MutableGraph, MutationBatch, VertexId, NO_VERTEX};
use cmg_matching::{assemble_matching, DistMatching, MatchFrontier, Matching};
use cmg_net::{NetConfig, NetError, NetSession, NetTask};
use cmg_partition::simple::block_partition;
use cmg_partition::{DistGraph, Partition};
use cmg_runtime::{CostModel, EngineConfig, SimEngine};

/// How the service absorbs mutations and runs recomputes.
pub struct ServeConfig {
    /// Ranks the graph is partitioned over.
    pub ranks: u32,
    /// Coloring framework configuration (its `seed` also drives the
    /// conflict-loser rule the repair's invalidation reuses).
    pub coloring: ColoringConfig,
    /// Fraction of vertices dirty (matching or coloring) above which
    /// a batch is absorbed by full recompute instead of repair.
    pub recompute_threshold: f64,
    /// `Some` = run cold passes (initial load, threshold recomputes)
    /// on a resident cmg-net worker fleet with this configuration;
    /// `None` = everything in-process.
    pub net: Option<NetConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            ranks: 4,
            coloring: ColoringConfig::default(),
            recompute_threshold: 0.25,
            net: None,
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
    /// Vertices the matching pass re-decided.
    pub dirty_matching: usize,
    /// Vertices the coloring pass re-decided.
    pub dirty_coloring: usize,
    /// Engine rounds of the matching pass. Warm repairs run the
    /// sequential frontier kernel, which has no rounds (0); recomputes
    /// report the cold engine's round count.
    pub match_rounds: u64,
    /// Engine rounds of the coloring pass (same convention).
    pub color_rounds: u64,
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
            match_rounds: self.match_rounds,
            color_rounds: self.color_rounds,
            micros,
        }
    }
}

/// The state a serving process keeps resident between requests.
pub struct ServeState {
    cfg: ServeConfig,
    mg: MutableGraph,
    /// Lazily rebuilt CSR cache: `None` after mutations until a
    /// recompute (or explicit [`ServeState::graph`] call) repacks it.
    /// The warm repair path never touches it.
    csr: Option<CsrGraph>,
    part: Partition,
    mate: Vec<VertexId>,
    colors: Vec<u32>,
    /// The repair kernels' reusable scratch; after a batch they hold
    /// the frontier it re-decided.
    match_frontier: MatchFrontier,
    color_frontier: ColorFrontier,
    /// Resident worker fleet for cold passes (net mode only).
    session: Option<NetSession>,
    /// Lifetime counters, served by the Summary query.
    pub batches: u64,
    /// Batches absorbed by warm-start repair.
    pub repairs: u64,
    /// Batches absorbed by full recompute.
    pub recomputes: u64,
    /// Fleet passes that failed unrecoverably and fell back to the
    /// in-process engine (net mode only; the fleet relaunches on its
    /// next pass).
    pub fleet_failures: u64,
    /// The most recent fleet failure's typed diagnosis, until taken.
    last_net_error: Option<NetError>,
}

impl ServeState {
    /// Loads `g0`, partitions it once, and computes the initial
    /// matching and coloring cold.
    pub fn new(g0: &CsrGraph, cfg: ServeConfig) -> Result<ServeState, NetError> {
        let part = block_partition(g0.num_vertices(), cfg.ranks);
        let session = cfg
            .net
            .as_ref()
            .map(|net_cfg| NetSession::open(DistGraph::build_all(g0, &part), net_cfg.clone()));
        let mut state = ServeState {
            mg: MutableGraph::from_csr(g0),
            csr: Some(g0.clone()),
            part,
            mate: Vec::new(),
            colors: Vec::new(),
            match_frontier: MatchFrontier::new(g0.num_vertices()),
            color_frontier: ColorFrontier::default(),
            session,
            cfg,
            batches: 0,
            repairs: 0,
            recomputes: 0,
            fleet_failures: 0,
            last_net_error: None,
        };
        // The initial load must fail loudly: a fleet that cannot even
        // launch is a configuration error, not a transient.
        state.recompute()?;
        Ok(state)
    }

    /// The graph currently served, in CSR form. Repacks the mutable
    /// edge set on first call after a mutation (O(n + m)) and caches —
    /// the warm repair path never needs it, so a repair-heavy stream
    /// pays this only when someone actually asks for the packed graph.
    pub fn graph(&mut self) -> &CsrGraph {
        let mg = &self.mg;
        self.csr.get_or_insert_with(|| mg.rebuild())
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
    pub fn matched_pairs(&self) -> usize {
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

    /// Current mate of `v` (`NO_VERTEX` = unmatched).
    pub fn mate_of(&self, v: VertexId) -> VertexId {
        self.mate[v as usize]
    }

    /// Current color of `v`.
    pub fn color_of(&self, v: VertexId) -> u32 {
        self.colors[v as usize]
    }

    /// Whether cold passes run on a resident worker fleet.
    pub fn uses_fleet(&self) -> bool {
        self.session.is_some()
    }

    /// Absorbs one mutation batch: apply, invalidate, repair (or
    /// recompute past the dirtiness threshold). On a rejected batch
    /// (`Err` = invalid mutation) the graph and served results are
    /// untouched.
    pub fn apply(&mut self, batch: &MutationBatch) -> Result<RepairReport, String> {
        let applied = self.mg.apply(batch)?;
        self.csr = None; // packed cache is stale from here
        self.batches += 1;

        // The kernels read the mutable adjacency directly and write the
        // resident vectors in place — no CSR repack, no n-vector copy.
        let seed = self.cfg.coloring.seed;
        // hot-path: begin (warm invalidate — in place, recycled scratch)
        self.match_frontier
            .invalidate(&self.mg, &mut self.mate, batch);
        self.color_frontier
            .invalidate(&self.mg, &mut self.colors, batch, seed);
        let dirty_matching = self.match_frontier.vertices().len();
        let dirty_coloring = self.color_frontier.vertices().len();
        // hot-path: end (warm invalidate)
        let n = self.mg.num_vertices().max(1);
        let dirtiness = dirty_matching.max(dirty_coloring) as f64 / n as f64;

        let mode = if dirtiness > self.cfg.recompute_threshold {
            self.recomputes += 1;
            // A fleet failure mid-serve degrades, it does not wedge:
            // the in-process fallback restores consistency, the typed
            // diagnosis is retained (`take_fleet_error`), and the
            // session relaunches a fresh fleet on its next pass.
            if let Err(e) = self.recompute() {
                self.fleet_failures += 1;
                self.last_net_error = Some(e);
                self.recompute_local();
            }
            RepairMode::Recompute
        } else {
            self.repairs += 1;
            // hot-path: begin (warm repair — in place, recycled scratch)
            self.match_frontier.repair(&self.mg, &mut self.mate);
            self.color_frontier.repair(&self.mg, &mut self.colors, seed);
            // hot-path: end (warm repair)
            RepairMode::Repair
        };

        Ok(RepairReport {
            mode,
            applied,
            dirty_matching,
            dirty_coloring,
            match_rounds: 0,
            color_rounds: 0,
        })
    }

    /// From-scratch matching + coloring on the current graph: on the
    /// resident fleet in net mode, in-process otherwise.
    fn recompute(&mut self) -> Result<(), NetError> {
        if self.session.is_none() {
            self.recompute_local();
            return Ok(());
        }
        // Field-level borrows (not `self.graph()`), so the packed cache
        // is read where it lives instead of being cloned.
        let g = self.csr.get_or_insert_with(|| self.mg.rebuild());
        let parts = DistGraph::build_all(g, &self.part);
        if let Some(session) = self.session.as_mut() {
            session.set_parts(parts)?;
            self.mate = session.submit_matching(NetTask::Matching)?.mates().to_vec();
            self.colors = session
                .submit_coloring(NetTask::Coloring(self.cfg.coloring))?
                .colors()
                .to_vec();
        }
        Ok(())
    }

    /// In-process from-scratch pass (also the net mode's fallback when
    /// a fleet pass fails unrecoverably).
    fn recompute_local(&mut self) {
        let g = self.csr.get_or_insert_with(|| self.mg.rebuild());
        let parts = DistGraph::build_all(g, &self.part);
        let programs: Vec<DistMatching> = parts.iter().cloned().map(DistMatching::new).collect();
        let result = SimEngine::new(programs, Self::engine_cfg()).run();
        self.mate = assemble_matching(&result.programs, g.num_vertices())
            .mates()
            .to_vec();
        let programs: Vec<DistColoring> = parts
            .into_iter()
            .map(|dg| DistColoring::new(dg, self.cfg.coloring))
            .collect();
        let result = SimEngine::new(programs, Self::engine_cfg()).run();
        self.colors = assemble_coloring(&result.programs, g.num_vertices())
            .colors()
            .to_vec();
    }

    /// Takes the most recent fleet failure's typed diagnosis, if any
    /// (net mode). The serving layer reports it; the service itself
    /// already fell back and stayed consistent.
    pub fn take_fleet_error(&mut self) -> Option<NetError> {
        self.last_net_error.take()
    }

    /// Shuts a resident fleet down gracefully (no-op in-process).
    pub fn close(&mut self) -> Result<(), NetError> {
        match self.session.as_mut() {
            Some(session) => session.close(),
            None => Ok(()),
        }
    }

    fn engine_cfg() -> EngineConfig {
        EngineConfig {
            cost: CostModel::compute_only(),
            ..Default::default()
        }
    }
}
