//! One-call runners: distribute a graph, execute a distributed algorithm
//! on the chosen engine, assemble and verify the result.

use cmg_coloring::{assemble_coloring, Coloring, ColoringConfig, DistColoring, JonesPlassmann};
use cmg_graph::CsrGraph;
use cmg_matching::dist::assemble_matching;
use cmg_matching::{DistMatching, Matching};
use cmg_net::NetTask;
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
}

/// The subset of an [`EngineConfig`] the net transport honors.
fn net_config(cfg: &EngineConfig) -> cmg_net::NetConfig {
    cmg_net::NetConfig {
        max_rounds: cfg.max_rounds,
        recorder: cfg.recorder.clone(),
        checkpoint_every: cfg.checkpoint_every,
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
    /// Total matched weight: each rank's
    /// [`DistMatching::local_matched_weight`], summed in rank order.
    pub weight: f64,
    /// Per-rank execution statistics.
    pub stats: RunStats,
    /// Simulated completion time (simulation engine; 0 otherwise).
    pub simulated_time: f64,
    /// Measured wall time (threaded and net engines).
    pub wall_time: Option<Duration>,
}

/// Outcome of a distributed coloring run.
#[derive(Debug)]
pub struct ColoringRun {
    /// The computed (global) coloring.
    pub coloring: Coloring,
    /// Remaining conflict edges: each rank's `local_conflict_count`,
    /// summed in rank order (0 for a correct run).
    pub conflicts: usize,
    /// Per-rank execution statistics.
    pub stats: RunStats,
    /// Simulated completion time (simulation engine; 0 otherwise).
    pub simulated_time: f64,
    /// Measured wall time (threaded and net engines).
    pub wall_time: Option<Duration>,
    /// Number of speculative phases ("rounds") executed.
    pub phases: u32,
}

/// Runs the distributed ½-approximation matching of `g` under `partition`:
/// [`run_matching_parts`] on [`DistGraph::build_all`]'s slices.
///
/// # Panics
/// Panics if the run fails to quiesce within the engine's round cap or if
/// ranks disagree on the result (either would be a bug).
pub fn run_matching(g: &CsrGraph, partition: &Partition, engine: &Engine) -> MatchingRun {
    run_matching_parts(DistGraph::build_all(g, partition), engine)
}

/// Runs the distributed speculative coloring of `g` under `partition`:
/// [`run_coloring_parts`] on [`DistGraph::build_all`]'s slices.
///
/// # Panics
/// Panics if the run fails to quiesce within the engine's round cap.
pub fn run_coloring(
    g: &CsrGraph,
    partition: &Partition,
    config: ColoringConfig,
    engine: &Engine,
) -> ColoringRun {
    run_coloring_parts(DistGraph::build_all(g, partition), config, engine)
}

/// Runs the Jones–Plassmann baseline coloring of `g` under `partition`.
/// Its phase count is the round count (each JP phase is one round).
pub fn run_jones_plassmann(
    g: &CsrGraph,
    partition: &Partition,
    seed: u64,
    engine: &Engine,
) -> ColoringRun {
    let parts = DistGraph::build_all(g, partition);
    let n = g.num_vertices();
    if let Engine::Net(cfg) = engine {
        let task = NetTask::JonesPlassmann { seed };
        let out = net_ok(cmg_net::run_task(parts, task, &net_config(cfg)), "JP");
        let (coloring, _, conflicts) = net_ok(out.coloring(n), "JP");
        return ColoringRun {
            coloring,
            conflicts,
            phases: out.rounds as u32,
            stats: out.stats,
            simulated_time: 0.0,
            wall_time: Some(Duration::from_secs_f64(out.wall_time)),
        };
    }
    let programs: Vec<JonesPlassmann> = parts
        .into_iter()
        .map(|dg| JonesPlassmann::new(dg, seed))
        .collect();
    let (programs, stats, simulated_time, wall_time) = run_local(programs, engine, "JP");
    ColoringRun {
        coloring: assemble_coloring(&programs, n),
        conflicts: programs
            .iter()
            .map(JonesPlassmann::local_conflict_count)
            .sum(),
        phases: stats.rounds as u32,
        stats,
        simulated_time,
        wall_time,
    }
}

/// Runs the distributed matching on pre-built rank-local graphs (e.g. from
/// [`cmg_partition::grid2d_dist`]), so a paper-scale run never builds the
/// global graph; it does assemble the global mate vector (4 B a vertex).
/// Every engine reports the same way: each rank's `(vertex, mate)` pairs,
/// assembled by [`assemble_matching`], and its own matched weight, summed
/// in rank order.
///
/// # Panics
/// Panics if the run fails to quiesce within the engine's round cap or if
/// ranks disagree on the result (either would be a bug).
pub fn run_matching_parts(parts: Vec<DistGraph>, engine: &Engine) -> MatchingRun {
    let n = parts.iter().map(|p| p.n_local).sum();
    if let Engine::Net(cfg) = engine {
        let task = NetTask::Matching;
        let out = net_ok(cmg_net::run_task(parts, task, &net_config(cfg)), "matching");
        let (matching, weight) = net_ok(out.matching(n), "matching");
        return MatchingRun {
            matching,
            weight,
            stats: out.stats,
            simulated_time: 0.0,
            wall_time: Some(Duration::from_secs_f64(out.wall_time)),
        };
    }
    let programs: Vec<DistMatching> = parts.into_iter().map(DistMatching::new).collect();
    let (programs, stats, simulated_time, wall_time) = run_local(programs, engine, "matching");
    MatchingRun {
        matching: assemble_matching(&programs, n),
        weight: programs
            .iter()
            .map(DistMatching::local_matched_weight)
            .sum(),
        stats,
        simulated_time,
        wall_time,
    }
}

/// Runs the distributed coloring on pre-built rank-local graphs, reporting
/// like [`run_matching_parts`]: each rank's `(vertex, color)` pairs,
/// assembled by [`assemble_coloring`], and its own conflict count, summed
/// in rank order.
///
/// # Panics
/// Panics if the run fails to quiesce within the engine's round cap.
pub fn run_coloring_parts(
    parts: Vec<DistGraph>,
    config: ColoringConfig,
    engine: &Engine,
) -> ColoringRun {
    let n = parts.iter().map(|p| p.n_local).sum();
    if let Engine::Net(cfg) = engine {
        let task = NetTask::Coloring(config);
        let out = net_ok(cmg_net::run_task(parts, task, &net_config(cfg)), "coloring");
        let (coloring, phases, conflicts) = net_ok(out.coloring(n), "coloring");
        return ColoringRun {
            coloring,
            conflicts,
            phases,
            stats: out.stats,
            simulated_time: 0.0,
            wall_time: Some(Duration::from_secs_f64(out.wall_time)),
        };
    }
    let programs: Vec<DistColoring> = parts
        .into_iter()
        .map(|dg| DistColoring::new(dg, config))
        .collect();
    let (programs, stats, simulated_time, wall_time) = run_local(programs, engine, "coloring");
    ColoringRun {
        coloring: assemble_coloring(&programs, n),
        conflicts: programs
            .iter()
            .map(DistColoring::local_conflict_count)
            .sum(),
        phases: programs
            .iter()
            .map(|p| p.phases_executed)
            .max()
            .unwrap_or(0),
        stats,
        simulated_time,
        wall_time,
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

    /// What a matching and a coloring run report, compared exactly: the
    /// weight's bits, the cardinality, the color count, the conflicts and
    /// the phases.
    fn report(m: &MatchingRun, c: &ColoringRun) -> (u64, usize, usize, usize, u32) {
        let (colors, cardinality) = (c.coloring.num_colors(), m.matching.cardinality());
        (
            m.weight.to_bits(),
            cardinality,
            colors,
            c.conflicts,
            c.phases,
        )
    }

    /// The two-rank graph of `cmg_coloring`'s hand-built conflict case: a
    /// 6-cycle with the chord 1–4, ranks {0, 1, 2} and {3, 4, 5}, so it
    /// has owned–owned and cut edges on both ranks.
    fn two_rank_case() -> Vec<DistGraph> {
        let mut b = cmg_graph::GraphBuilder::new(6);
        for (u, v, w) in [(0, 1, 0.5), (1, 2, 0.25), (2, 3, 0.75), (3, 4, 0.5)] {
            b.add_edge(u, v, w);
        }
        for (u, v, w) in [(4, 5, 0.125), (5, 0, 1.0), (1, 4, 0.625)] {
            b.add_edge(u, v, w);
        }
        DistGraph::build_all(&b.build(), &Partition::new(vec![0, 0, 0, 1, 1, 1], 2))
    }

    #[test]
    fn parts_runners_agree_with_global_runners() {
        let g = weighted_grid();
        let part = grid2d_partition(8, 8, 2, 2);
        let cfg = ColoringConfig::default();
        let sim = Engine::default_simulated();
        let global = run_matching(&g, &part, &sim);
        assert!((global.weight - global.matching.weight(&g)).abs() < 1e-9);
        let cglobal = run_coloring(&grid2d(8, 8), &part, cfg, &sim);
        let want = report(&global, &cglobal);
        assert_eq!(want.3, 0);
        for engine in [sim, Engine::default_threaded()] {
            let m = run_matching_parts(cmg_partition::grid2d_dist(8, 8, 2, 2, Some(1)), &engine);
            let c = run_coloring_parts(cmg_partition::grid2d_dist(8, 8, 2, 2, None), cfg, &engine);
            assert_eq!(report(&m, &c), want);
            assert_eq!(m.matching, global.matching);
            assert_eq!(c.coloring, cglobal.coloring);
            if let Engine::Simulated(_) = engine {
                assert_eq!(m.simulated_time, global.simulated_time);
            }
        }
    }

    #[test]
    fn net_engine_agrees_with_simulated() {
        let g = weighted_grid();
        let p = grid2d_partition(8, 8, 2, 2);
        let sim = run_matching(&g, &p, &Engine::default_simulated());
        let net = run_matching(&g, &p, &Engine::Net(EngineConfig::default()));
        assert_eq!(sim.matching, net.matching);
        assert!(net.wall_time.is_some());
        assert_eq!(net.simulated_time, 0.0);
        assert_eq!(net.stats.per_rank.len(), 4);
    }

    #[test]
    fn net_parts_runners_agree_with_global() {
        let cfg = ColoringConfig::default();
        let inputs = [
            (
                cmg_partition::grid2d_dist(8, 8, 2, 2, Some(1)),
                cmg_partition::grid2d_dist(8, 8, 2, 2, None),
            ),
            (two_rank_case(), two_rank_case()),
        ];
        for (weighted, unweighted) in inputs {
            let engines = [
                Engine::default_simulated(),
                Engine::default_threaded(),
                Engine::Net(EngineConfig::default()),
            ];
            let runs: Vec<_> = engines
                .iter()
                .map(|e| {
                    let m = run_matching_parts(weighted.clone(), e);
                    let c = run_coloring_parts(unweighted.clone(), cfg, e);
                    (report(&m, &c), m.matching, c.coloring)
                })
                .collect();
            assert_eq!(runs[0].0 .3, 0);
            assert_eq!(runs[1], runs[0], "threaded");
            assert_eq!(runs[2], runs[0], "net");
        }
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
