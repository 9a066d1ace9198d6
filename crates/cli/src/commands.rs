//! The CLI subcommands.

use crate::args::Args;
use cmg_coloring::{ColoringConfig, CommVariant};
use cmg_core::{run_coloring, run_matching, Engine};
use cmg_graph::weights::{assign_weights, WeightScheme};
use cmg_graph::{generators, io, metis_io, CsrGraph, GraphStats};
use cmg_obs::{CollectingRecorder, Json, MetricsRegistry, RecorderHandle, RunReport};
use cmg_partition::simple as psimple;
use cmg_partition::{multilevel_partition, Partition};
use cmg_runtime::EngineConfig;
use std::fs::File;
use std::io::BufWriter;
use std::sync::Arc;

/// Runs `f`, mapping an error message to exit code 1.
fn run(f: impl FnOnce() -> Result<(), String>) -> i32 {
    match f() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// `--json FILE`, if given: writes `json()` there and says so.
fn write_json_arg(args: &Args, what: &str, json: impl FnOnce() -> Json) -> Result<(), String> {
    if let Some(p) = args.get("json") {
        std::fs::write(p, json().to_string_pretty() + "\n")
            .map_err(|e| format!("cannot write {p}: {e}"))?;
        println!("json {what} written to {p}");
    }
    Ok(())
}

/// Whether `path` names a METIS graph file rather than an edge list.
fn is_metis(path: &str) -> bool {
    path.ends_with(".graph") || path.ends_with(".metis")
}

fn load_graph(path: &str) -> Result<CsrGraph, String> {
    // The readers pull blocks from the file themselves.
    let reader = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    if path.ends_with(".mtx") {
        let m = io::read_matrix_market(reader).map_err(|e| e.to_string())?;
        if m.rows != m.cols {
            return Err(format!(
                "{path} is rectangular ({}x{}): only square matrices map to a graph here",
                m.rows, m.cols
            ));
        }
        Ok(m.to_adjacency())
    } else if is_metis(path) {
        metis_io::read_metis(reader).map_err(|e| e.to_string())
    } else {
        io::read_edge_list(reader).map_err(|e| e.to_string())
    }
}

fn save_graph(g: &CsrGraph, path: &str) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let mut writer = BufWriter::new(file);
    if path.ends_with(".mtx") {
        io::write_matrix_market(g, &mut writer).map_err(|e| e.to_string())?;
    } else if is_metis(path) {
        metis_io::write_metis(g, &mut writer).map_err(|e| e.to_string())?;
    } else {
        io::write_edge_list(g, &mut writer).map_err(|e| e.to_string())?;
    }
    std::io::Write::flush(&mut writer).map_err(|e| format!("cannot write {path}: {e}"))
}

/// `--parts` / `--ranks`: every partitioner's contract is at least one
/// part, and a 0 from the command line must not reach their `assert!`s.
fn count_arg(args: &Args, key: &str, default: u32) -> Result<u32, String> {
    match args.num(key, default)? {
        0 => Err(format!("--{key} must be at least 1")),
        n => Ok(n),
    }
}

fn build_partition(g: &CsrGraph, args: &Args) -> Result<Partition, String> {
    let parts = count_arg(args, "parts", 1)?;
    let seed: u64 = args.num("seed", 0)?;
    let method = args.get_or("method", "multilevel");
    Ok(match method {
        "multilevel" => multilevel_partition(g, parts, seed),
        "block" => psimple::block_partition(g.num_vertices(), parts),
        "bfs" => psimple::bfs_partition(g, parts),
        "random" => psimple::random_partition(g.num_vertices(), parts, seed),
        "hash" => psimple::hash_partition(g.num_vertices(), parts, seed),
        other => return Err(format!("unknown partition method: {other}")),
    })
}

fn build_engine(args: &Args, recorder: RecorderHandle) -> Result<Engine, String> {
    let checkpoint: u64 = args.num("checkpoint-interval", 0)?;
    let cfg = EngineConfig {
        bundling: !args.has_switch("--no-bundling"),
        checkpoint_every: (checkpoint > 0).then_some(checkpoint),
        ..Default::default()
    }
    .with_recorder(recorder);
    match args.get_or("engine", "sim") {
        "sim" => Ok(Engine::Simulated(cfg)),
        "threaded" => Ok(Engine::Threaded(cfg)),
        "net" => Ok(Engine::Net(cfg)),
        other => Err(format!("unknown engine: {other}")),
    }
}

/// Observability outputs requested via `--trace-out` (Chrome trace JSON),
/// `--events-out` (JSONL event stream), `--metrics-out` (metrics JSONL)
/// and `--report-out` (aggregated run report, `.json` or text).
struct ObsSinks {
    collector: Arc<CollectingRecorder>,
    trace_out: Option<String>,
    events_out: Option<String>,
    metrics_out: Option<String>,
    report_out: Option<String>,
}

impl ObsSinks {
    /// Returns the sinks plus a live recorder handle when any output flag
    /// is present; otherwise `None` (the engine keeps the free noop
    /// recorder).
    fn from_args(args: &Args) -> Option<(ObsSinks, RecorderHandle)> {
        let trace_out = args.get("trace-out").map(String::from);
        let events_out = args.get("events-out").map(String::from);
        let metrics_out = args.get("metrics-out").map(String::from);
        let report_out = args.get("report-out").map(String::from);
        if trace_out.is_none()
            && events_out.is_none()
            && metrics_out.is_none()
            && report_out.is_none()
        {
            return None;
        }
        let (collector, handle) = CollectingRecorder::shared();
        let sinks = ObsSinks {
            collector,
            trace_out,
            events_out,
            metrics_out,
            report_out,
        };
        Some((sinks, handle))
    }

    /// Drains the collected events and writes every requested file.
    fn write(&self, name: &str) -> Result<(), String> {
        let events = self.collector.take();
        let write = |path: &str, contents: String| {
            std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))
        };
        if let Some(p) = &self.trace_out {
            write(p, cmg_obs::sink::chrome_trace(&events))?;
            println!("trace written to {p} ({} events)", events.len());
        }
        if let Some(p) = &self.events_out {
            write(p, cmg_obs::sink::events_to_jsonl(&events))?;
            println!("events written to {p}");
        }
        if let Some(p) = &self.metrics_out {
            let mut reg = MetricsRegistry::new();
            reg.observe_events(&events);
            write(p, reg.to_jsonl())?;
            println!("metrics written to {p}");
        }
        if let Some(p) = &self.report_out {
            let report = RunReport::from_events(name, &events);
            let out = if p.ends_with(".json") {
                report.to_json().to_string_pretty() + "\n"
            } else {
                report.to_text()
            };
            write(p, out)?;
            println!("report written to {p}");
        }
        Ok(())
    }
}

/// Splits the optional observability sinks from the recorder handle the
/// engine should carry.
fn obs_setup(args: &Args) -> (Option<ObsSinks>, RecorderHandle) {
    match ObsSinks::from_args(args) {
        Some((sinks, handle)) => (Some(sinks), handle),
        None => (None, RecorderHandle::noop()),
    }
}

/// `cmg gen`
pub fn gen(argv: &[String]) -> i32 {
    run(|| {
        let args = Args::parse(argv)?;
        let kind = args.get_or("kind", "grid2d");
        let seed: u64 = args.num("seed", 1)?;
        let n: usize = args.num("n", 1024)?;
        let rows: usize = args.num("rows", 32)?;
        let cols: usize = args.num("cols", 32)?;
        let g = match kind {
            "grid2d" => generators::grid2d(rows, cols),
            "grid3d" => {
                let nz: usize = args.num("depth", 8)?;
                generators::grid3d(rows, cols, nz)
            }
            "circuit" => generators::circuit_like(n, seed),
            "rmat" => {
                let scale = (n as f64).log2().ceil() as u32;
                generators::rmat(scale, 8, (0.57, 0.19, 0.19, 0.05), seed)
            }
            "erdos" => generators::erdos_renyi(n, 4 * n, seed),
            other => return Err(format!("unknown graph kind: {other}")),
        };
        let g = match args.get_or("weights", "none") {
            "none" => g,
            "uniform" => assign_weights(&g, WeightScheme::Uniform { lo: 0.0, hi: 1.0 }, seed),
            "integer" => assign_weights(&g, WeightScheme::Integer { max: 100 }, seed),
            "equal" => assign_weights(&g, WeightScheme::Equal(1.0), seed),
            other => return Err(format!("unknown weight scheme: {other}")),
        };
        let out = args.required("o")?;
        save_graph(&g, out)?;
        println!("wrote {out}: {}", GraphStats::of(&g));
        Ok(())
    })
}

/// `cmg stats`
pub fn stats(argv: &[String]) -> i32 {
    run(|| {
        let args = Args::parse(argv)?;
        let g = load_graph(args.required("input")?)?;
        println!("{}", GraphStats::of(&g));
        println!("weighted: {}", g.is_weighted());
        println!(
            "components: {}",
            cmg_graph::traversal::connected_components(&g).1
        );
        println!("degeneracy: {}", cmg_coloring::seq::degeneracy(&g));
        Ok(())
    })
}

/// `cmg partition`
pub fn partition(argv: &[String]) -> i32 {
    run(|| {
        let args = Args::parse(argv)?;
        let g = load_graph(args.required("input")?)?;
        let part = build_partition(&g, &args)?;
        println!(
            "{} parts over {}: {}",
            part.num_parts(),
            GraphStats::of(&g),
            part.quality(&g)
        );
        if let Some(out) = args.get("o") {
            use std::io::Write;
            let mut w = BufWriter::new(File::create(out).map_err(|e| e.to_string())?);
            for &a in part.assignment() {
                writeln!(w, "{a}").map_err(|e| e.to_string())?;
            }
            println!("assignment written to {out}");
        }
        Ok(())
    })
}

/// `cmg match`
pub fn matching(argv: &[String]) -> i32 {
    run(|| {
        let args = Args::parse(argv)?;
        let g = load_graph(args.required("input")?)?;
        if let Some(alg) = args.get("seq") {
            let m = match alg {
                "greedy" => cmg_matching::seq::greedy(&g),
                "local-dominant" => cmg_matching::seq::local_dominant(&g),
                "path-growing" => cmg_matching::seq::path_growing(&g),
                "suitor" => cmg_matching::seq::suitor(&g),
                other => return Err(format!("unknown sequential algorithm: {other}")),
            };
            m.validate(&g)
                .map_err(|e| format!("invalid matching: {e}"))?;
            println!(
                "sequential {alg}: {} edges, weight {:.4}",
                m.cardinality(),
                m.weight(&g)
            );
            return Ok(());
        }
        let part = build_partition(&g, &args)?;
        let (obs, recorder) = obs_setup(&args);
        let engine = build_engine(&args, recorder)?;
        let runr = run_matching(&g, &part, &engine);
        runr.matching
            .validate(&g)
            .map_err(|e| format!("invalid matching: {e}"))?;
        println!(
            "matched {} edges, weight {:.4} over {} ranks ({})",
            runr.matching.cardinality(),
            runr.matching.weight(&g),
            part.num_parts(),
            part.quality(&g)
        );
        match runr.wall_time {
            Some(w) => println!("wall time: {w:.2?}"),
            None => println!("simulated time: {:.3} ms", runr.simulated_time * 1e3),
        }
        println!(
            "messages: {} in {} packets, {} bytes",
            runr.stats.total_messages(),
            runr.stats.total_packets(),
            runr.stats.total_bytes()
        );
        if let Some(obs) = &obs {
            obs.write("match")?;
        }
        Ok(())
    })
}

/// `cmg color`
pub fn coloring(argv: &[String]) -> i32 {
    run(|| {
        let args = Args::parse(argv)?;
        let g = load_graph(args.required("input")?)?;
        let g = g.unweighted();
        let part = build_partition(&g, &args)?;
        let (obs, recorder) = obs_setup(&args);
        let engine = build_engine(&args, recorder)?;
        let distance: u32 = args.num("distance", 1)?;
        let superstep: usize = args.num("superstep", 1000)?;
        match distance {
            1 => {
                let comm = match args.get_or("comm", "new") {
                    "new" => CommVariant::Neighbor,
                    "fiac" => CommVariant::Fiac,
                    "fiab" => CommVariant::Fiab,
                    other => return Err(format!("unknown comm variant: {other}")),
                };
                let cfg = ColoringConfig {
                    superstep_size: superstep,
                    comm,
                    ..Default::default()
                };
                let runr = run_coloring(&g, &part, cfg, &engine);
                runr.coloring
                    .validate(&g)
                    .map_err(|e| format!("invalid coloring: {e}"))?;
                println!(
                    "{} colors in {} phases over {} ranks",
                    runr.coloring.num_colors(),
                    runr.phases,
                    part.num_parts()
                );
                match runr.wall_time {
                    Some(w) => println!("wall time: {w:.2?}"),
                    None => println!("simulated time: {:.3} ms", runr.simulated_time * 1e3),
                }
            }
            2 => {
                use cmg_coloring::dist2::{assemble_d2, DistColoring2};
                let parts = cmg_partition::DistGraph::build_all(&g, &part);
                let programs: Vec<DistColoring2> = parts
                    .into_iter()
                    .map(|dg| DistColoring2::new(dg, superstep, 7))
                    .collect();
                let result = cmg_runtime::SimEngine::new(programs, engine.config().clone()).run();
                if result.hit_round_cap {
                    return Err("distance-2 coloring did not converge".into());
                }
                let coloring = assemble_d2(&result.programs, g.num_vertices());
                cmg_coloring::distance2::validate_d2(&coloring, &g)
                    .map_err(|e| format!("invalid d2 coloring: {e}"))?;
                println!(
                    "{} colors (distance-2) over {} ranks; simulated time {:.3} ms",
                    coloring.num_colors(),
                    part.num_parts(),
                    result.stats.makespan() * 1e3
                );
            }
            other => return Err(format!("--distance must be 1 or 2, got {other}")),
        }
        if let Some(obs) = &obs {
            obs.write("color")?;
        }
        Ok(())
    })
}

/// `cmg trace report` — the critical-path analyzer: ingests a recorded
/// trace (the `--trace-out` Chrome trace or the `--events-out` JSONL
/// stream, including the merged multi-process traces of the net engine)
/// and prints the per-round phase breakdown with the straggler rank.
pub fn trace(argv: &[String]) -> i32 {
    run(|| {
        // Peel the subcommand before flag parsing (`report` is the only
        // one so far; keep it explicit so future subcommands have a
        // namespace).
        let rest = match argv.first().map(String::as_str) {
            Some("report") => &argv[1..],
            Some(other) if !other.starts_with('-') => {
                return Err(format!(
                    "unknown trace subcommand: {other} (expected `report`)"
                ))
            }
            _ => argv,
        };
        let args = Args::parse(rest)?;
        let input = args.required("input")?;
        let text =
            std::fs::read_to_string(input).map_err(|e| format!("cannot read {input}: {e}"))?;
        // A Chrome trace is one JSON object with a `traceEvents` array;
        // an event stream is one JSON object per line. Try the trace
        // shape first; a file that has it is never re-read as JSONL, so
        // an unreadable entry is reported as what it is.
        let events = match cmg_obs::trace::events_from_chrome_trace(&text) {
            Ok(Some(events)) => Ok(events),
            Ok(None) => cmg_obs::sink::events_from_jsonl(&text)
                .map_err(|e| format!("not a Chrome trace; as an event JSONL stream, {e}")),
            Err(e) => Err(e),
        }
        .map_err(|e| format!("cannot read {input}: {e}"))?;
        let report = cmg_obs::TraceReport::from_events(&events);
        if report.rounds.is_empty() {
            return Err(format!(
                "{input} has no phase spans to analyze (net-engine round phases appear \
                 only in runs recorded with --trace-out or --events-out)"
            ));
        }
        print!("{}", report.to_text());
        write_json_arg(&args, "report", || report.to_json())
    })
}

/// `cmg run` — the one-command demo/acceptance path: matching + coloring
/// on a fig5-style five-point grid at a chosen rank count, on any of the
/// three engines (including the multi-process `net` engine, where each
/// rank is its own OS process over Unix-domain sockets).
pub fn run_demo(argv: &[String]) -> i32 {
    run(|| {
        let args = Args::parse(argv)?;
        let ranks = count_arg(&args, "ranks", 4)?;
        let rows: usize = args.num("rows", 32)?;
        let cols: usize = args.num("cols", 32)?;
        let seed: u64 = args.num("seed", 7)?;
        let (obs, recorder) = obs_setup(&args);
        let engine = build_engine(&args, recorder)?;
        let g = match args.get("input") {
            Some(path) => load_graph(path)?,
            None => assign_weights(
                &generators::grid2d(rows, cols),
                WeightScheme::Uniform { lo: 0.0, hi: 1.0 },
                seed,
            ),
        };
        let part = psimple::block_partition(g.num_vertices(), ranks);
        println!(
            "{} over {ranks} ranks ({})",
            GraphStats::of(&g),
            args.get_or("engine", "sim")
        );

        let m = run_matching(&g, &part, &engine);
        m.matching
            .validate(&g)
            .map_err(|e| format!("invalid matching: {e}"))?;
        m.stats.assert_conservation();
        println!(
            "matching: {} edges, weight {:.4}, {} rounds",
            m.matching.cardinality(),
            m.matching.weight(&g),
            m.stats.rounds
        );

        let gu = g.unweighted();
        let c = run_coloring(&gu, &part, ColoringConfig::default(), &engine);
        c.coloring
            .validate(&gu)
            .map_err(|e| format!("invalid coloring: {e}"))?;
        c.stats.assert_conservation();
        println!(
            "coloring: {} colors in {} phases, {} rounds",
            c.coloring.num_colors(),
            c.phases,
            c.stats.rounds
        );
        match m.wall_time {
            Some(w) => println!(
                "wall time: {:.2?} + {:.2?}",
                w,
                c.wall_time.unwrap_or_default()
            ),
            None => println!(
                "simulated time: {:.3} + {:.3} ms",
                m.simulated_time * 1e3,
                c.simulated_time * 1e3
            ),
        }

        if args.has_switch("--verify") {
            let reference = Engine::Simulated(EngineConfig::default());
            let sm = run_matching(&g, &part, &reference);
            if sm.matching != m.matching {
                return Err("matching differs from the simulated engine".into());
            }
            let sc = run_coloring(&gu, &part, ColoringConfig::default(), &reference);
            if sc.coloring != c.coloring || sc.phases != c.phases {
                return Err("coloring differs from the simulated engine".into());
            }
            println!("verified: results bit-identical to the simulated engine");
        }

        if let Some(obs) = &obs {
            obs.write("run")?;
        }
        Ok(())
    })
}

/// `cmg serve` — load a graph once, compute the initial matching and
/// coloring, and serve mutations and queries over a Unix socket until
/// a client sends Shutdown. `--engine net` runs cold passes (initial
/// load, threshold recomputes) on a resident multi-process worker
/// fleet; warm repairs always run in-process.
pub fn serve(argv: &[String]) -> i32 {
    run(|| {
        let args = Args::parse(argv)?;
        let socket = args.required("socket")?.to_string();
        let ranks = count_arg(&args, "ranks", 4)?;
        let rows: usize = args.num("rows", 32)?;
        let cols: usize = args.num("cols", 32)?;
        let seed: u64 = args.num("seed", 7)?;
        let threshold: f64 = args.num("threshold", 0.25)?;
        let g = match args.get("input") {
            Some(path) => load_graph(path)?,
            None => assign_weights(
                &generators::grid2d(rows, cols),
                WeightScheme::Uniform { lo: 0.0, hi: 1.0 },
                seed,
            ),
        };
        let net = match args.get_or("engine", "sim") {
            "sim" => None,
            "net" => Some(cmg_net::NetConfig::default()),
            other => return Err(format!("unknown serve engine: {other} (sim|net)")),
        };
        let serve_cfg = cmg_serve::ServeConfig {
            ranks,
            recompute_threshold: threshold,
            net,
            ..Default::default()
        };
        println!(
            "serving {} over {ranks} ranks on {socket} ({}, threshold {threshold})",
            GraphStats::of(&g),
            args.get_or("engine", "sim"),
        );
        let server = cmg_serve::Server::bind(
            &g,
            cmg_serve::ServerConfig {
                socket: socket.clone().into(),
                serve: serve_cfg,
            },
        )
        .map_err(|e| e.to_string())?;
        println!("ready");
        let summary = server.run().map_err(|e| e.to_string())?;
        println!("{}", summary.render());
        write_json_arg(&args, "summary", || summary.to_json())
    })
}

/// `cmg client` — drive a running `cmg serve`: stream a mutation
/// script, issue queries, and optionally shut the server down.
///
/// The mutation script is a text file of one op per line —
/// `insert U V W`, `delete U V`, `reweight U V W` (first letter
/// suffices) — with blank lines separating batches.
pub fn client(argv: &[String]) -> i32 {
    run(|| {
        let args = Args::parse(argv)?;
        let socket = std::path::PathBuf::from(args.required("socket")?);
        let timeout = std::time::Duration::from_millis(args.num("connect-timeout-ms", 10_000)?);
        let mut client =
            cmg_serve::ServeClient::connect(&socket, timeout).map_err(|e| e.to_string())?;

        if let Some(path) = args.get("mutations") {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            for (i, batch) in parse_mutation_script(&text)?.iter().enumerate() {
                match client.mutate(batch).map_err(|e| e.to_string())? {
                    cmg_serve::RepairAck::Done {
                        mode,
                        dirty_matching,
                        dirty_coloring,
                        match_rounds,
                        color_rounds,
                        micros,
                    } => println!(
                        "batch {i}: {} ({dirty_matching}+{dirty_coloring} dirty, \
                         {match_rounds}+{color_rounds} rounds, {micros} us)",
                        if mode == 0 { "repaired" } else { "recomputed" },
                    ),
                    cmg_serve::RepairAck::Rejected { code } => {
                        return Err(format!(
                            "batch {i} rejected: {}",
                            if code == 1 {
                                "invalid mutation"
                            } else {
                                "undecodable payload"
                            }
                        ))
                    }
                }
            }
        }

        if let Some(v) = args.get("mate") {
            let v: u32 = v.parse().map_err(|_| format!("bad vertex: {v}"))?;
            match client.mate_of(v).map_err(|e| e.to_string())? {
                Some(mate) => println!("mate({v}) = {mate}"),
                None => println!("mate({v}) = unmatched"),
            }
        }
        if let Some(v) = args.get("color") {
            let v: u32 = v.parse().map_err(|_| format!("bad vertex: {v}"))?;
            println!(
                "color({v}) = {}",
                client.color_of(v).map_err(|e| e.to_string())?
            );
        }
        if args.has_switch("--summary") {
            let s = client.summary().map_err(|e| e.to_string())?;
            println!(
                "graph: {} vertices, {} edges | matching: {} edges, weight {:.4} | \
                 coloring: {} colors | absorbed {} batches ({} repaired, {} recomputed)",
                s.n, s.m, s.matched, s.weight, s.colors, s.batches, s.repairs, s.recomputes
            );
        }

        if args.has_switch("--shutdown") {
            client.shutdown_server().map_err(|e| e.to_string())?;
        } else {
            client.end_session().map_err(|e| e.to_string())?;
        }
        Ok(())
    })
}

/// Parses the `cmg client --mutations` script format.
fn parse_mutation_script(text: &str) -> Result<Vec<cmg_graph::MutationBatch>, String> {
    let mut batches = Vec::new();
    let mut batch = cmg_graph::MutationBatch::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            if !batch.ops.is_empty() {
                batches.push(std::mem::take(&mut batch));
            }
            continue;
        }
        let err = |what: &str| format!("line {}: {what}: {line}", lineno + 1);
        let mut tok = line.split_whitespace();
        let op = tok
            .next()
            .ok_or_else(|| err("empty line slipped the filter"))?;
        let mut num = |name: &str| -> Result<u32, String> {
            tok.next()
                .ok_or_else(|| err(&format!("missing {name}")))?
                .parse()
                .map_err(|_| err(&format!("bad {name}")))
        };
        match op.chars().next().map(|c| c.to_ascii_lowercase()) {
            Some('i') => {
                let (u, v) = (num("u")?, num("v")?);
                let w: f64 = tok
                    .next()
                    .ok_or_else(|| err("missing weight"))?
                    .parse()
                    .map_err(|_| err("bad weight"))?;
                batch.insert(u, v, w);
            }
            Some('d') => {
                let (u, v) = (num("u")?, num("v")?);
                batch.delete(u, v);
            }
            Some('r') => {
                let (u, v) = (num("u")?, num("v")?);
                let w: f64 = tok
                    .next()
                    .ok_or_else(|| err("missing weight"))?
                    .parse()
                    .map_err(|_| err("bad weight"))?;
                batch.reweight(u, v, w);
            }
            _ => return Err(err("unknown op (insert|delete|reweight)")),
        }
    }
    if !batch.ops.is_empty() {
        batches.push(batch);
    }
    Ok(batches)
}
