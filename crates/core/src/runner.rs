//! One-call runners: distribute a graph, execute a distributed algorithm
//! on the chosen engine, assemble and verify the result.

use cmg_coloring::{assemble_coloring, jp, Coloring, ColoringConfig, DistColoring, JonesPlassmann};
use cmg_graph::CsrGraph;
use cmg_matching::dist::assemble_matching;
use cmg_matching::{DistMatching, Matching};
use cmg_partition::{DistGraph, Partition};
use cmg_runtime::{EngineConfig, RankProgram, RunStats, SimEngine, ThreadedEngine};
use std::time::Duration;

/// Which execution engine to use.
#[derive(Clone, Debug)]
pub enum Engine {
    /// Discrete-event simulation under the configured cost model; scales
    /// to the paper's rank counts and reports simulated time.
    Simulated(EngineConfig),
    /// One OS thread per rank; reports wall-clock time. Keep rank counts
    /// near the host's core count.
    Threaded(EngineConfig),
    /// One OS process per rank over Unix-domain sockets (`cmg-net`);
    /// reports wall-clock time. The cost model, delivery policy, and
    /// sync-rounds knobs do not apply — the transport is always the
    /// synchronous bundled protocol; `max_rounds`, `checkpoint_every`,
    /// and the recorder carry over (on this engine a checkpoint cadence
    /// additionally arms supervisor respawn-and-replay recovery).
    Net(EngineConfig),
}

impl Engine {
    /// Simulated engine with default (Blue Gene/P) configuration.
    pub fn default_simulated() -> Self {
        Engine::Simulated(EngineConfig::default())
    }

    /// Threaded engine with default configuration.
    pub fn default_threaded() -> Self {
        Engine::Threaded(EngineConfig::default())
    }

    /// Multi-process socket engine with default configuration.
    pub fn default_net() -> Self {
        Engine::Net(EngineConfig::default())
    }

    /// Multi-process socket engine with the given configuration (only
    /// `max_rounds`, `recorder`, `net_telemetry` and `checkpoint_every`
    /// apply; see [`Engine::Net`]).
    pub fn net(cfg: EngineConfig) -> Self {
        Engine::Net(cfg)
    }

    /// The underlying engine configuration.
    pub fn config(&self) -> &EngineConfig {
        match self {
            Engine::Simulated(c) | Engine::Threaded(c) | Engine::Net(c) => c,
        }
    }
}

/// The subset of an [`EngineConfig`] the net transport honors.
fn net_config(cfg: &EngineConfig) -> cmg_net::NetConfig {
    cmg_net::NetConfig {
        max_rounds: cfg.max_rounds,
        recorder: cfg.recorder.clone(),
        telemetry: cfg.net_telemetry,
        checkpoint_every: cfg.checkpoint_every.unwrap_or(0),
        ..Default::default()
    }
}

/// Unwraps a net-engine result, aborting with the transport diagnosis on
/// failure (mirrors the round-cap asserts of the in-process engines).
fn net_ok<T>(result: Result<T, cmg_net::NetError>, what: &str) -> T {
    let ok = result.is_ok();
    match result {
        Ok(v) => v,
        Err(e) => {
            assert!(ok, "{what} failed on the net engine: {e}");
            unreachable!()
        }
    }
}

/// Runs `programs` to quiescence on an in-process engine and returns the
/// final programs, the statistics, the simulated completion time (0 on
/// the threaded engine) and the wall time (threaded engine only).
///
/// # Panics
/// Panics if the run (`what`, for the message) hits the engine's round
/// cap. The net engine has its own runners: callers peel it off first.
fn run_local<P: RankProgram>(
    programs: Vec<P>,
    engine: &Engine,
    what: &str,
) -> (Vec<P>, RunStats, f64, Option<Duration>) {
    let (programs, stats, hit_round_cap, wall_time) = match engine {
        Engine::Simulated(cfg) => {
            let r = SimEngine::new(programs, cfg.clone()).run();
            (r.programs, r.stats, r.hit_round_cap, None)
        }
        Engine::Threaded(cfg) => {
            let r = ThreadedEngine::new(programs, cfg.clone()).run();
            (r.programs, r.stats, r.hit_round_cap, Some(r.wall_time))
        }
        Engine::Net(_) => unreachable!("net runs do not step programs in this process"),
    };
    assert!(!hit_round_cap, "{what} hit the round cap");
    // Per-rank virtual times are all 0 on the threaded engine.
    let simulated_time = stats.makespan();
    (programs, stats, simulated_time, wall_time)
}

/// Outcome of a distributed matching run.
#[derive(Debug)]
pub struct MatchingRun {
    /// The computed (global) matching.
    pub matching: Matching,
    /// Per-rank execution statistics.
    pub stats: RunStats,
    /// Simulated completion time (simulation engine; 0 for threaded).
    pub simulated_time: f64,
    /// Measured wall time (threaded engine only).
    pub wall_time: Option<Duration>,
}

/// Outcome of a distributed coloring run.
#[derive(Debug)]
pub struct ColoringRun {
    /// The computed (global) coloring.
    pub coloring: Coloring,
    /// Per-rank execution statistics.
    pub stats: RunStats,
    /// Simulated completion time (simulation engine; 0 for threaded).
    pub simulated_time: f64,
    /// Measured wall time (threaded engine only).
    pub wall_time: Option<Duration>,
    /// Number of speculative phases ("rounds") executed.
    pub phases: u32,
}

/// Runs the distributed ½-approximation matching of `g` under `partition`.
///
/// # Panics
/// Panics if the run fails to quiesce within the engine's round cap or if
/// ranks disagree on the result (either would be a bug).
pub fn run_matching(g: &CsrGraph, partition: &Partition, engine: &Engine) -> MatchingRun {
    let parts = DistGraph::build_all(g, partition);
    if let Engine::Net(cfg) = engine {
        let run = net_ok(cmg_net::run_matching(parts, &net_config(cfg)), "matching");
        return MatchingRun {
            matching: run.matching,
            stats: run.stats,
            simulated_time: 0.0,
            wall_time: Some(Duration::from_secs_f64(run.wall_time)),
        };
    }
    let programs: Vec<DistMatching> = parts.into_iter().map(DistMatching::new).collect();
    let (programs, stats, simulated_time, wall_time) = run_local(programs, engine, "matching");
    MatchingRun {
        matching: assemble_matching(&programs, g.num_vertices()),
        stats,
        simulated_time,
        wall_time,
    }
}

/// Runs the distributed speculative coloring of `g` under `partition`.
///
/// # Panics
/// Panics if the run fails to quiesce within the engine's round cap.
pub fn run_coloring(
    g: &CsrGraph,
    partition: &Partition,
    config: ColoringConfig,
    engine: &Engine,
) -> ColoringRun {
    let parts = DistGraph::build_all(g, partition);
    if let Engine::Net(cfg) = engine {
        let run = cmg_net::run_coloring(parts, config, &net_config(cfg));
        return net_coloring_run(run, "coloring");
    }
    let programs: Vec<DistColoring> = parts
        .into_iter()
        .map(|dg| DistColoring::new(dg, config))
        .collect();
    let (programs, stats, simulated_time, wall_time) = run_local(programs, engine, "coloring");
    ColoringRun {
        coloring: assemble_coloring(&programs, g.num_vertices()),
        phases: max_phases(&programs),
        stats,
        simulated_time,
        wall_time,
    }
}

/// A net-engine coloring result in the runners' shape.
fn net_coloring_run(
    result: Result<cmg_net::NetColoringRun, cmg_net::NetError>,
    what: &str,
) -> ColoringRun {
    let run = net_ok(result, what);
    ColoringRun {
        coloring: run.coloring,
        stats: run.stats,
        simulated_time: 0.0,
        wall_time: Some(Duration::from_secs_f64(run.wall_time)),
        phases: run.phases,
    }
}

/// Speculative phases executed: the slowest rank's count.
fn max_phases(programs: &[DistColoring]) -> u32 {
    programs
        .iter()
        .map(|p| p.phases_executed)
        .max()
        .unwrap_or(0)
}

/// Runs the Jones–Plassmann baseline coloring of `g` under `partition`.
pub fn run_jones_plassmann(
    g: &CsrGraph,
    partition: &Partition,
    seed: u64,
    engine: &Engine,
) -> ColoringRun {
    let parts = DistGraph::build_all(g, partition);
    if let Engine::Net(cfg) = engine {
        let run = cmg_net::run_jones_plassmann(parts, seed, &net_config(cfg));
        return net_coloring_run(run, "Jones-Plassmann");
    }
    let programs: Vec<JonesPlassmann> = parts
        .into_iter()
        .map(|dg| JonesPlassmann::new(dg, seed))
        .collect();
    let (programs, stats, simulated_time, wall_time) = run_local(programs, engine, "JP");
    ColoringRun {
        coloring: jp::assemble_jp(&programs, g.num_vertices()),
        phases: stats.rounds as u32,
        stats,
        simulated_time,
        wall_time,
    }
}

/// Summary of a distributed matching run executed directly on pre-built
/// rank-local graphs — the memory-light path for paper-scale inputs
/// (weight and cardinality are reduced across ranks; no global graph or
/// global mate array is materialized).
#[derive(Debug)]
pub struct PartsMatchingRun {
    /// Total matched weight.
    pub weight: f64,
    /// Number of matched edges.
    pub cardinality: usize,
    /// Execution statistics.
    pub stats: RunStats,
    /// Simulated completion time (simulation engine; 0 for threaded).
    pub simulated_time: f64,
    /// Measured wall time (threaded engine only).
    pub wall_time: Option<Duration>,
}

/// Summary of a distributed coloring run executed directly on pre-built
/// rank-local graphs.
#[derive(Debug)]
pub struct PartsColoringRun {
    /// Number of colors used.
    pub num_colors: usize,
    /// Remaining conflict edges (must be 0 — exposed for verification).
    pub conflicts: usize,
    /// Speculative phases executed.
    pub phases: u32,
    /// Execution statistics.
    pub stats: RunStats,
    /// Simulated completion time (simulation engine; 0 for threaded).
    pub simulated_time: f64,
    /// Measured wall time (threaded engine only).
    pub wall_time: Option<Duration>,
}

/// Runs the distributed matching on pre-built rank-local graphs (e.g. from
/// [`cmg_partition::grid2d_dist`]). See [`PartsMatchingRun`].
pub fn run_matching_parts(parts: Vec<DistGraph>, engine: &Engine) -> PartsMatchingRun {
    if let Engine::Net(cfg) = engine {
        return net_matching_parts(parts, cfg);
    }
    let programs: Vec<DistMatching> = parts.into_iter().map(DistMatching::new).collect();
    let (programs, stats, simulated_time, wall_time) = run_local(programs, engine, "matching");
    PartsMatchingRun {
        weight: programs.iter().map(|p| p.local_matched_weight()).sum(),
        cardinality: programs.iter().map(|p| p.local_matched_edges()).sum(),
        stats,
        simulated_time,
        wall_time,
    }
}

/// Runs the distributed coloring on pre-built rank-local graphs. See
/// [`PartsColoringRun`].
pub fn run_coloring_parts(
    parts: Vec<DistGraph>,
    config: ColoringConfig,
    engine: &Engine,
) -> PartsColoringRun {
    if let Engine::Net(cfg) = engine {
        return net_coloring_parts(parts, config, cfg);
    }
    let programs: Vec<DistColoring> = parts
        .into_iter()
        .map(|dg| DistColoring::new(dg, config))
        .collect();
    let (programs, stats, simulated_time, wall_time) = run_local(programs, engine, "coloring");
    PartsColoringRun {
        num_colors: programs
            .iter()
            .filter_map(|p| p.max_local_color())
            .max()
            .map_or(0, |c| c as usize + 1),
        conflicts: programs.iter().map(|p| p.local_conflict_count()).sum(),
        phases: max_phases(&programs),
        stats,
        simulated_time,
        wall_time,
    }
}

/// Net-engine body of [`run_matching_parts`]: workers ship mate pairs
/// home, and the matched weight is recovered from the rank-local
/// adjacency of the lower endpoint's own part.
fn net_matching_parts(parts: Vec<DistGraph>, cfg: &EngineConfig) -> PartsMatchingRun {
    let keep = parts.clone();
    let out = net_ok(
        cmg_net::run_task(parts, cmg_net::NetTask::Matching, &net_config(cfg)),
        "matching",
    );
    let mut weight = 0.0;
    let mut cardinality = 0usize;
    for (dg, outcome) in keep.iter().zip(&out.outcomes) {
        let pairs = match outcome {
            cmg_net::WorkerOutcome::Matching(pairs) => pairs,
            cmg_net::WorkerOutcome::Coloring { .. } => {
                let matched = false;
                assert!(matched, "net matching run returned a coloring outcome");
                unreachable!()
            }
        };
        for &(v, m) in pairs {
            if m == cmg_graph::NO_VERTEX || m < v {
                continue;
            }
            cardinality += 1;
            if let Some(&lv) = dg.global_to_local.get(&v) {
                let lv = lv as usize;
                for e in dg.xadj[lv]..dg.xadj[lv + 1] {
                    if dg.global_ids[dg.adj[e] as usize] == m {
                        weight += dg.weights[e];
                        break;
                    }
                }
            }
        }
    }
    PartsMatchingRun {
        weight,
        cardinality,
        stats: out.stats,
        simulated_time: 0.0,
        wall_time: Some(Duration::from_secs_f64(out.wall_time)),
    }
}

/// Net-engine body of [`run_coloring_parts`]: conflicts are re-counted
/// from the shipped colors against each part's adjacency, charging every
/// edge to the owner of its lower endpoint so cross-rank edges count once.
fn net_coloring_parts(
    parts: Vec<DistGraph>,
    config: ColoringConfig,
    cfg: &EngineConfig,
) -> PartsColoringRun {
    let keep = parts.clone();
    let out = net_ok(
        cmg_net::run_task(parts, cmg_net::NetTask::Coloring(config), &net_config(cfg)),
        "coloring",
    );
    let mut colors: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    let mut phases = 0u32;
    for outcome in &out.outcomes {
        let (pairs, rank_phases) = match outcome {
            cmg_net::WorkerOutcome::Coloring { pairs, phases } => (pairs, *phases),
            cmg_net::WorkerOutcome::Matching(_) => {
                let colored = false;
                assert!(colored, "net coloring run returned a matching outcome");
                unreachable!()
            }
        };
        phases = phases.max(rank_phases);
        colors.extend(pairs.iter().copied());
    }
    let num_colors = colors.values().max().map_or(0, |&c| c as usize + 1);
    let mut conflicts = 0usize;
    for dg in &keep {
        for lv in 0..dg.n_local {
            let v = dg.global_ids[lv];
            for e in dg.xadj[lv]..dg.xadj[lv + 1] {
                let u = dg.global_ids[dg.adj[e] as usize];
                if v < u && colors.get(&v) == colors.get(&u) {
                    conflicts += 1;
                }
            }
        }
    }
    PartsColoringRun {
        num_colors,
        conflicts,
        phases,
        stats: out.stats,
        simulated_time: 0.0,
        wall_time: Some(Duration::from_secs_f64(out.wall_time)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmg_coloring::ColoringConfig;
    use cmg_graph::generators::grid2d;
    use cmg_graph::weights::{assign_weights, WeightScheme};
    use cmg_partition::simple::grid2d_partition;

    fn weighted_grid() -> CsrGraph {
        assign_weights(&grid2d(8, 8), WeightScheme::Uniform { lo: 0.0, hi: 1.0 }, 1)
    }

    #[test]
    fn simulated_and_threaded_matching_agree() {
        let g = weighted_grid();
        let p = grid2d_partition(8, 8, 2, 2);
        let sim = run_matching(&g, &p, &Engine::default_simulated());
        let thr = run_matching(&g, &p, &Engine::default_threaded());
        assert_eq!(sim.matching, thr.matching);
        sim.matching.validate(&g).unwrap();
        assert!(sim.simulated_time > 0.0);
        assert!(thr.wall_time.is_some());
    }

    #[test]
    fn simulated_and_threaded_coloring_agree() {
        let g = grid2d(8, 8);
        let p = grid2d_partition(8, 8, 2, 2);
        let cfg = ColoringConfig {
            superstep_size: 4,
            ..Default::default()
        };
        let sim = run_coloring(&g, &p, cfg, &Engine::default_simulated());
        let thr = run_coloring(&g, &p, cfg, &Engine::default_threaded());
        sim.coloring.validate(&g).unwrap();
        thr.coloring.validate(&g).unwrap();
        assert_eq!(sim.coloring, thr.coloring);
        assert_eq!(sim.phases, thr.phases);
    }

    #[test]
    fn parts_runners_agree_with_global_runners() {
        let g = weighted_grid();
        let part = grid2d_partition(8, 8, 2, 2);
        let global = run_matching(&g, &part, &Engine::default_simulated());
        let parts = cmg_partition::grid2d_dist(8, 8, 2, 2, Some(1));
        let summary = run_matching_parts(parts, &Engine::default_simulated());
        assert!((summary.weight - global.matching.weight(&g)).abs() < 1e-9);
        assert_eq!(summary.cardinality, global.matching.cardinality());
        assert_eq!(summary.simulated_time, global.simulated_time);

        let unweighted = grid2d(8, 8);
        let cfg = ColoringConfig::default();
        let cglobal = run_coloring(&unweighted, &part, cfg, &Engine::default_simulated());
        let cparts = cmg_partition::grid2d_dist(8, 8, 2, 2, None);
        let csummary = run_coloring_parts(cparts, cfg, &Engine::default_simulated());
        assert_eq!(csummary.num_colors, cglobal.coloring.num_colors());
        assert_eq!(csummary.conflicts, 0);
        assert_eq!(csummary.phases, cglobal.phases);
    }

    #[test]
    fn net_engine_agrees_with_simulated() {
        let g = weighted_grid();
        let p = grid2d_partition(8, 8, 2, 2);
        let sim = run_matching(&g, &p, &Engine::default_simulated());
        let net = run_matching(&g, &p, &Engine::default_net());
        assert_eq!(sim.matching, net.matching);
        assert!(net.wall_time.is_some());
        assert_eq!(net.simulated_time, 0.0);
        assert_eq!(net.stats.per_rank.len(), 4);
    }

    #[test]
    fn net_parts_runners_agree_with_global() {
        let g = weighted_grid();
        let part = grid2d_partition(8, 8, 2, 2);
        let global = run_matching(&g, &part, &Engine::default_simulated());
        let parts = cmg_partition::grid2d_dist(8, 8, 2, 2, Some(1));
        let summary = run_matching_parts(parts, &Engine::default_net());
        assert!((summary.weight - global.matching.weight(&g)).abs() < 1e-9);
        assert_eq!(summary.cardinality, global.matching.cardinality());

        let unweighted = grid2d(8, 8);
        let cfg = ColoringConfig::default();
        let cglobal = run_coloring(&unweighted, &part, cfg, &Engine::default_simulated());
        let cparts = cmg_partition::grid2d_dist(8, 8, 2, 2, None);
        let csummary = run_coloring_parts(cparts, cfg, &Engine::default_net());
        assert_eq!(csummary.num_colors, cglobal.coloring.num_colors());
        assert_eq!(csummary.conflicts, 0);
        assert_eq!(csummary.phases, cglobal.phases);
    }

    #[test]
    fn jones_plassmann_runs_on_both_engines() {
        let g = grid2d(6, 6);
        let p = grid2d_partition(6, 6, 2, 2);
        let sim = run_jones_plassmann(&g, &p, 7, &Engine::default_simulated());
        let thr = run_jones_plassmann(&g, &p, 7, &Engine::default_threaded());
        sim.coloring.validate(&g).unwrap();
        assert_eq!(sim.coloring, thr.coloring);
    }
}
