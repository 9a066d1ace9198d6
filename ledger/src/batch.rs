//! The three file-to-answer workloads on the host engines: one table
//! row each (input × partitioner × engines), one repetition body.
//!
//! A repetition follows `cmg_core::runner` call for call — load,
//! partition, then per problem distribute → program init → engine run →
//! assemble → verify — but from the outside, with a span around every
//! call, so each layer's share of the answer time is read off the
//! harness's own clock.

use crate::checks::{color_count, half_approx_certificate, proper_coloring};
use crate::harness::{timed, Harness, RepClock, RepTimes, Workload};
use cmg_coloring::{assemble_coloring, ColoringConfig, DistColoring};
use cmg_graph::generators;
use cmg_graph::io::{read_matrix_market, write_matrix_market};
use cmg_graph::weights::{assign_weights, WeightScheme};
use cmg_graph::{CsrGraph, VertexId};
use cmg_matching::{assemble_matching, DistMatching, Matching};
use cmg_net::{LinkStats, NetConfig};
use cmg_obs::TraceReport;
use cmg_partition::simple::{grid2d_partition, hash_partition};
use cmg_partition::{multilevel_partition, DistGraph, HaloView, Partition};
use cmg_runtime::{EngineConfig, RunStats, SimEngine, ThreadedEngine};
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::time::Instant;

/// Ranks on the host engines: the system under test.
pub const RANKS: u32 = 4;

/// Where a workload's graph comes from.
#[derive(Clone, Copy, Debug)]
pub enum Input {
    /// `side × side` five-point grid, read from a Matrix Market file.
    GridFile { side: usize },
    /// `circuit_like(n)`, read from a Matrix Market file.
    CircuitFile { n: usize },
    /// R-MAT, handed over in memory.
    RmatMem { scale: u32, edge_factor: usize },
}

/// How the graph is divided among the ranks.
#[derive(Clone, Copy, Debug)]
pub enum Partitioner {
    /// `grid2d_partition` on a 2 × 2 processor grid (cut ≈ 0.2 %).
    Grid2x2,
    /// `multilevel_partition`, k = 4 (cut ≈ 4 % on the circuit graph).
    Multilevel,
    /// `hash_partition` (cut ≈ 75 %).
    Hash,
}

/// One row of the workload table.
#[derive(Clone, Copy, Debug)]
pub struct BatchSpec {
    pub input: Input,
    pub partitioner: Partitioner,
    /// Run both problems on `ThreadedEngine`.
    pub threaded: bool,
    /// Run both problems on the net engine (worker processes).
    pub net: bool,
}

/// The table. Sizes are the largest that keep one run — three set-ups,
/// the timed repetitions and three memory probes — under thirty seconds
/// on two cores.
pub fn spec_for(name: &str, smoke: bool) -> Option<BatchSpec> {
    Some(match name {
        "grid_file_thr" => BatchSpec {
            input: Input::GridFile {
                side: if smoke { 48 } else { 1024 },
            },
            partitioner: Partitioner::Grid2x2,
            threaded: true,
            net: false,
        },
        "circuit_ml_net" => BatchSpec {
            input: Input::CircuitFile {
                n: if smoke { 3_000 } else { 200_000 },
            },
            partitioner: Partitioner::Multilevel,
            threaded: false,
            net: true,
        },
        // Do not enlarge: at scale 16 the net engine fails today with
        // EAGAIN from `LinkWriter::flush_batch`.
        "rmat_hash_net" => BatchSpec {
            input: Input::RmatMem {
                scale: if smoke { 8 } else { 15 },
                edge_factor: 8,
            },
            partitioner: Partitioner::Hash,
            threaded: true,
            net: true,
        },
        _ => return None,
    })
}

/// Answers every later repetition must reproduce bit for bit, computed
/// on the simulation engine during set-up.
struct Reference {
    mates: Vec<VertexId>,
    colors: Vec<u32>,
    /// Vertices recolored after a conflict, summed over ranks.
    recolored: u64,
}

/// What set-up leaves behind.
struct Prepared {
    graph: CsrGraph,
    file_bytes: u64,
    reference: Reference,
}

/// The primary engine's answers of one repetition.
struct Answers {
    part: Partition,
    mates: Option<Vec<VertexId>>,
    colors: Option<Vec<u32>>,
}

#[derive(Clone, Copy, PartialEq)]
enum EngineKind {
    Threaded,
    Net,
}

/// Counters one repetition accumulates across its engine runs.
#[derive(Default)]
struct RepCounters {
    thr_match_run_s: f64,
    net_match_loop_s: f64,
    links: LinkStats,
    net_rounds: u64,
    net_failed: u64,
    events: usize,
    phases: cmg_obs::trace::PhaseSplit,
    /// Protocol totals of the primary engine, both problems.
    stats: RunStats,
}

fn quiesced(hit_round_cap: bool) -> Result<(), String> {
    if hit_round_cap {
        Err("hit the round cap".into())
    } else {
        Ok(())
    }
}

/// One of the three batch workloads.
pub struct Batch {
    spec: BatchSpec,
    seed: u64,
    file: PathBuf,
    worker: PathBuf,
    prepared: Option<Prepared>,
    last_part: Option<Partition>,
}

impl Batch {
    /// The workload for one table row. `file` is where the input is
    /// written for the file workloads; `worker` is the executable the
    /// net engine spawns per rank (this binary).
    pub fn new(spec: BatchSpec, seed: u64, file: PathBuf, worker: PathBuf) -> Batch {
        Batch {
            spec,
            seed,
            file,
            worker,
            prepared: None,
            last_part: None,
        }
    }

    /// The seed's input graph.
    pub fn generate(&self) -> CsrGraph {
        let plain = match self.spec.input {
            Input::GridFile { side } => generators::grid2d(side, side),
            Input::CircuitFile { n } => generators::circuit_like(n, self.seed),
            Input::RmatMem { scale, edge_factor } => {
                generators::rmat(scale, edge_factor, (0.57, 0.19, 0.19, 0.05), self.seed)
            }
        };
        assign_weights(
            &plain,
            WeightScheme::Uniform { lo: 0.0, hi: 1.0 },
            self.seed,
        )
    }

    fn reads_file(&self) -> bool {
        !matches!(self.spec.input, Input::RmatMem { .. })
    }

    fn partition(&self, g: &CsrGraph) -> Partition {
        match (self.spec.partitioner, self.spec.input) {
            (Partitioner::Grid2x2, Input::GridFile { side }) => grid2d_partition(side, side, 2, 2),
            (Partitioner::Multilevel, _) => multilevel_partition(g, RANKS, self.seed),
            _ => hash_partition(g.num_vertices(), RANKS, self.seed),
        }
    }

    /// The coloring's random priority function is part of the seeded
    /// input, like the edge weights.
    fn coloring_config(&self) -> ColoringConfig {
        ColoringConfig {
            seed: ColoringConfig::default().seed ^ self.seed,
            ..Default::default()
        }
    }

    fn net_config(&self, h: &Harness) -> NetConfig {
        NetConfig {
            worker_binary: Some(self.worker.clone()),
            recorder: h.recorder(),
            ..Default::default()
        }
    }

    fn engines(&self) -> impl Iterator<Item = EngineKind> {
        let BatchSpec { threaded, net, .. } = self.spec;
        [
            threaded.then_some(EngineKind::Threaded),
            net.then_some(EngineKind::Net),
        ]
        .into_iter()
        .flatten()
    }

    /// The engine whose run is the workload's answer: net where it runs.
    fn primary(&self) -> EngineKind {
        if self.spec.net {
            EngineKind::Net
        } else {
            EngineKind::Threaded
        }
    }

    /// Obs events of the engine run just finished: counted, and for a
    /// net run split into the round phases.
    fn absorb_events(h: &mut Harness, c: &mut RepCounters, net: bool) {
        if !h.tracing() {
            return;
        }
        let events = h.drain_events();
        c.events += events.len();
        if net {
            let split = h
                .tracer
                .time("obs.report_s", || TraceReport::from_events(&events))
                .total_split();
            c.phases.serialize_s += split.serialize_s;
            c.phases.wire_wait_s += split.wire_wait_s;
            c.phases.reseq_hold_s += split.reseq_hold_s;
            c.phases.done_wave_s += split.done_wave_s;
            c.phases.compute_s += split.compute_s;
            c.phases.delivery_s += split.delivery_s;
        }
    }

    /// Distribute → init → run → assemble → verify for the matching on
    /// one engine. `None` when the engine failed (already tallied).
    fn match_chain(
        &self,
        h: &mut Harness,
        c: &mut RepCounters,
        g: &CsrGraph,
        part: &Partition,
        engine: EngineKind,
        reference: Option<&Reference>,
    ) -> Option<Vec<VertexId>> {
        let n = g.num_vertices();
        let primary = engine == self.primary();
        let parts = h
            .tracer
            .time("partition.dist_build_s", || DistGraph::build_all(g, part));
        if primary {
            let ghosts: usize = parts.iter().map(DistGraph::n_ghost).sum();
            h.layer("partition.ghosts", ghosts as f64);
        }
        let (matching, stats) = match engine {
            EngineKind::Threaded => {
                let programs: Vec<DistMatching> = h.tracer.time("matching.init_s", || {
                    parts.into_iter().map(DistMatching::new).collect()
                });
                let cfg = EngineConfig::default().with_recorder(h.recorder());
                let result = h.tracer.time("runtime.threaded.run_s", || {
                    ThreadedEngine::new(programs, cfg).run()
                });
                c.thr_match_run_s += result.wall_time.as_secs_f64();
                let matching = h.tracer.time("matching.assemble_s", || {
                    assemble_matching(&result.programs, n)
                });
                h.check("threaded matching quiesces", quiesced(result.hit_round_cap));
                Self::absorb_events(h, c, false);
                let stats = result.stats.clone();
                h.tracer.time("matching.teardown_s", || drop(result));
                (matching, stats)
            }
            EngineKind::Net => {
                let cfg = self.net_config(h);
                let run = h
                    .tracer
                    .time("net.wall_s", || cmg_net::run_matching(parts, &cfg));
                Self::absorb_events(h, c, true);
                match run {
                    Ok(run) => {
                        c.net_match_loop_s += run.round_wall_time;
                        h.layer("net.round_cpu_s", run.round_cpu_time);
                        h.layer(
                            "net.launch_ship_collect_s",
                            run.wall_time - run.round_wall_time,
                        );
                        c.links.merge(&run.links.total);
                        c.net_rounds += run.rounds;
                        (run.matching, run.stats)
                    }
                    Err(e) => {
                        c.net_failed += 1;
                        h.check("net matching run", Err(e.to_string()));
                        return None;
                    }
                }
            }
        };
        let verdicts = h.tracer.time("check.verify_match_s", || {
            vec![
                ("matching is valid", matching.validate(g)),
                (
                    "matching carries the half-approximation certificate",
                    half_approx_certificate(g, matching.mates()),
                ),
                (
                    "matching equals the simulation-engine reference",
                    match reference {
                        Some(r) if r.mates != matching.mates() => {
                            Err("mate vectors differ".to_string())
                        }
                        _ => Ok(()),
                    },
                ),
                (
                    "matching run conserves packets, bytes and messages",
                    stats.conservation_violation().map_or(Ok(()), Err),
                ),
            ]
        });
        for (what, verdict) in verdicts {
            h.check(what, verdict);
        }
        if primary {
            h.layer("matching.rounds", stats.rounds as f64);
            h.layer("matching.messages", stats.total_messages() as f64);
            h.layer("matching.work_units", stats.total_work() as f64);
            c.stats.merge(&stats);
        }
        Some(matching.mates().to_vec())
    }

    /// The same chain for the coloring.
    fn color_chain(
        &self,
        h: &mut Harness,
        c: &mut RepCounters,
        g: &CsrGraph,
        part: &Partition,
        engine: EngineKind,
        reference: Option<&Reference>,
    ) -> Option<Vec<u32>> {
        let n = g.num_vertices();
        let primary = engine == self.primary();
        let config = self.coloring_config();
        let parts = h
            .tracer
            .time("partition.dist_build_s", || DistGraph::build_all(g, part));
        let (coloring, stats, phases) = match engine {
            EngineKind::Threaded => {
                let programs: Vec<DistColoring> = h.tracer.time("coloring.init_s", || {
                    parts
                        .into_iter()
                        .map(|dg| DistColoring::new(dg, config))
                        .collect()
                });
                let cfg = EngineConfig::default().with_recorder(h.recorder());
                let result = h.tracer.time("runtime.threaded.run_s", || {
                    ThreadedEngine::new(programs, cfg).run()
                });
                let coloring = h.tracer.time("coloring.assemble_s", || {
                    assemble_coloring(&result.programs, n)
                });
                h.check("threaded coloring quiesces", quiesced(result.hit_round_cap));
                Self::absorb_events(h, c, false);
                let phases = result.programs.iter().map(|p| p.phases_executed).max();
                let stats = result.stats.clone();
                h.tracer.time("coloring.teardown_s", || drop(result));
                (coloring, stats, phases.unwrap_or(0))
            }
            EngineKind::Net => {
                let cfg = self.net_config(h);
                let run = h
                    .tracer
                    .time("net.wall_s", || cmg_net::run_coloring(parts, config, &cfg));
                Self::absorb_events(h, c, true);
                match run {
                    Ok(run) => {
                        c.links.merge(&run.links.total);
                        c.net_rounds += run.rounds;
                        (run.coloring, run.stats, run.phases)
                    }
                    Err(e) => {
                        c.net_failed += 1;
                        h.check("net coloring run", Err(e.to_string()));
                        return None;
                    }
                }
            }
        };
        let verdicts = h.tracer.time("check.verify_color_s", || {
            vec![
                (
                    "coloring is proper and complete",
                    proper_coloring(g, coloring.colors()),
                ),
                (
                    "coloring equals the simulation-engine reference",
                    match reference {
                        Some(r) if r.colors != coloring.colors() => {
                            Err("color vectors differ".to_string())
                        }
                        _ => Ok(()),
                    },
                ),
                (
                    "coloring run conserves packets, bytes and messages",
                    stats.conservation_violation().map_or(Ok(()), Err),
                ),
            ]
        });
        for (what, verdict) in verdicts {
            h.check(what, verdict);
        }
        if primary {
            h.layer("coloring.rounds", stats.rounds as f64);
            h.layer("coloring.phases", f64::from(phases));
            h.layer("coloring.messages", stats.total_messages() as f64);
            c.stats.merge(&stats);
        }
        Some(coloring.colors().to_vec())
    }

    /// One repetition against `graph` (the in-memory input; file
    /// workloads read their own copy back from disk).
    fn run_rep(
        &self,
        h: &mut Harness,
        graph: &CsrGraph,
        file_bytes: u64,
        reference: Option<&Reference>,
    ) -> (RepTimes, Answers) {
        let clock = RepClock::start();
        let mut c = RepCounters::default();
        let rep_span = h.tracer.enter("core.rep");

        let loaded;
        let g = if self.reads_file() {
            let (load_s, read) = timed(|| {
                h.tracer.time("graph.load_s", || {
                    std::fs::File::open(&self.file)
                        .map_err(|e| e.to_string())
                        .and_then(|f| read_matrix_market(f).map_err(|e| format!("{e:?}")))
                        .map(|m| m.to_adjacency())
                })
            });
            h.layer("graph.load_mb_per_s", file_bytes as f64 / 1e6 / load_s);
            match read {
                Ok(g) => loaded = g,
                Err(e) => {
                    // Nothing downstream can run; the repetition fails whole.
                    h.check("input file loads", Err(e));
                    loaded = graph.clone();
                }
            }
            &loaded
        } else {
            graph
        };
        let part = h.tracer.time("partition.assign_s", || self.partition(g));

        let solve = Instant::now();
        let (mut mates, mut colors) = (None, None);
        for engine in self.engines() {
            let primary = engine == self.primary();
            let span = primary
                .then(|| h.tracer.enter("core.match_solve_s"))
                .flatten();
            let answer = self.match_chain(h, &mut c, g, &part, engine, reference);
            h.tracer.exit(span);
            if primary {
                mates = answer;
            }
        }
        for engine in self.engines() {
            let primary = engine == self.primary();
            let span = primary
                .then(|| h.tracer.enter("core.color_solve_s"))
                .flatten();
            let answer = self.color_chain(h, &mut c, g, &part, engine, reference);
            h.tracer.exit(span);
            if primary {
                colors = answer;
            }
        }
        let solve_wall_s = solve.elapsed().as_secs_f64();
        h.tracer.exit(rep_span);

        self.flush_counters(h, &c);
        let times = RepTimes {
            answer_wall_s: clock.wall_s(),
            solve_wall_s,
            cpu_s: clock.cpu_s(),
        };
        (
            times,
            Answers {
                part,
                mates,
                colors,
            },
        )
    }

    /// Per-layer counters of one traced repetition.
    fn flush_counters(&self, h: &mut Harness, c: &RepCounters) {
        if !h.tracing() {
            return;
        }
        let (msgs, packets) = (c.stats.total_messages(), c.stats.total_packets());
        h.layer("runtime.messages", msgs as f64);
        h.layer("runtime.packets", packets as f64);
        h.layer("runtime.bytes", c.stats.total_bytes() as f64);
        if packets > 0 {
            h.layer("runtime.bundle_ratio", msgs as f64 / packets as f64);
        }
        h.layer("obs.events", c.events as f64);
        if !self.spec.net {
            return;
        }
        h.layer("net.failed_runs", c.net_failed as f64);
        h.layer("net.round_loop_s", c.net_match_loop_s);
        if c.thr_match_run_s > 0.0 {
            h.layer("net.overhead_ratio", c.net_match_loop_s / c.thr_match_run_s);
        }
        h.layer("net.frames_sent", c.links.frames_sent as f64);
        h.layer("net.wire_bytes", c.links.bytes_sent as f64);
        if c.net_rounds > 0 {
            h.layer(
                "net.syscalls_per_round",
                c.links.syscalls as f64 / c.net_rounds as f64,
            );
        }
        if c.links.frames_sent > 0 {
            h.layer(
                "net.coalesced_frac",
                c.links.frames_coalesced as f64 / c.links.frames_sent as f64,
            );
        }
        let p = &c.phases;
        h.layer("net.phase.serialize_s", p.serialize_s);
        h.layer("net.phase.wire_wait_s", p.wire_wait_s);
        h.layer("net.phase.reseq_hold_s", p.reseq_hold_s);
        h.layer("net.phase.done_wave_s", p.done_wave_s);
        h.layer("net.phase.compute_s", p.compute_s);
        h.layer("net.phase.delivery_s", p.delivery_s);
        if p.accounted_s() > 0.0 {
            h.layer(
                "net.wait_frac",
                (p.wire_wait_s + p.done_wave_s) / p.accounted_s(),
            );
        }
    }

    /// Both problems on the simulation engine under `part`.
    fn reference(&self, g: &CsrGraph, part: &Partition) -> Reference {
        let n = g.num_vertices();
        let parts = DistGraph::build_all(g, part);
        let programs: Vec<DistMatching> = parts.iter().cloned().map(DistMatching::new).collect();
        let result = SimEngine::new(programs, EngineConfig::default()).run();
        let mates = assemble_matching(&result.programs, n).mates().to_vec();
        let config = self.coloring_config();
        let programs: Vec<DistColoring> = parts
            .into_iter()
            .map(|dg| DistColoring::new(dg, config))
            .collect();
        let result = SimEngine::new(programs, EngineConfig::default()).run();
        Reference {
            mates,
            colors: assemble_coloring(&result.programs, n).colors().to_vec(),
            recolored: result.programs.iter().map(|p| p.total_recolored).sum(),
        }
    }
}

impl Workload for Batch {
    fn setup(&mut self, h: &mut Harness) {
        let graph = self.generate();
        let mut file_bytes = 0;
        if self.reads_file() {
            let written = std::fs::File::create(&self.file)
                .map_err(|e| e.to_string())
                .and_then(|f| {
                    let mut w = BufWriter::new(f);
                    write_matrix_market(&graph, &mut w).map_err(|e| format!("{e:?}"))?;
                    w.flush().map_err(|e| e.to_string())
                });
            h.check("input file is written", written);
            file_bytes = std::fs::metadata(&self.file).map_or(0, |m| m.len());
        }
        // The warm-up repetition runs the whole pipeline once; the
        // reference is then computed under the partition it chose.
        let (_, warm) = self.run_rep(h, &graph, file_bytes, None);
        let reference = self.reference(&graph, &warm.part);
        h.check(
            "warm-up matching equals the simulation-engine reference",
            match warm.mates {
                Some(m) if m == reference.mates => Ok(()),
                _ => Err("mate vectors differ or the run failed".into()),
            },
        );
        h.check(
            "warm-up coloring equals the simulation-engine reference",
            match warm.colors {
                Some(c) if c == reference.colors => Ok(()),
                _ => Err("color vectors differ or the run failed".into()),
            },
        );
        self.prepared = Some(Prepared {
            graph,
            file_bytes,
            reference,
        });
    }

    fn rep(&mut self, h: &mut Harness) -> RepTimes {
        let Some(p) = self.prepared.as_ref() else {
            h.check("set-up ran before the repetition", Err("it did not".into()));
            return RepTimes::default();
        };
        let (times, answers) = self.run_rep(h, &p.graph, p.file_bytes, Some(&p.reference));
        self.last_part = Some(answers.part);
        times
    }

    fn probes(&mut self, h: &mut Harness) {
        let (Some(p), Some(part)) = (self.prepared.as_ref(), self.last_part.as_ref()) else {
            return;
        };
        let g = &p.graph;
        let quality = part.quality(g);
        h.layer("partition.cut_frac", quality.cut_fraction);
        h.layer("partition.imbalance", quality.imbalance);

        let parts = DistGraph::build_all(g, part);
        let (halo_s, halos) =
            timed(|| parts.iter().map(HaloView::build).collect::<Vec<HaloView>>());
        h.layer("partition.halo_build_s", halo_s);
        drop(halos);

        // Plain sequential baselines on the same graph.
        let (seq_s, greedy) = timed(|| cmg_matching::seq::greedy(g));
        h.layer("matching.seq_s", seq_s);
        h.check(
            "distributed matching equals sequential greedy",
            if greedy.mates() == p.reference.mates {
                Ok(())
            } else {
                Err("mate vectors differ".into())
            },
        );
        let (seq_s, seq_coloring) =
            timed(|| cmg_coloring::seq::greedy(g, cmg_coloring::seq::Ordering::Natural));
        h.layer("coloring.seq_s", seq_s);
        h.check(
            "sequential greedy coloring is proper",
            proper_coloring(g, seq_coloring.colors()),
        );

        let reference = Matching::from_mates(p.reference.mates.clone());
        h.layer("matching.weight", reference.weight(g));
        h.layer("matching.cardinality", reference.cardinality() as f64);
        h.layer("coloring.colors", color_count(&p.reference.colors) as f64);
        let n = g.num_vertices() as f64;
        h.layer(
            "coloring.recolor_ratio",
            n / (n + p.reference.recolored as f64),
        );
    }

    fn finish(&mut self, _h: &mut Harness) {
        let _ = std::fs::remove_file(&self.file);
    }
}
