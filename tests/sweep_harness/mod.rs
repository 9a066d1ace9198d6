//! The sweep's cells, digests, relations and pinned digest file, shared by
//! `tests/sweep.rs` and the named tests that each run a share of its small
//! tier (`owner`, `check_small_tier`); `tests/sweep.rs` describes the sweep.

use bytes::Bytes;
use cmg_coloring::dist::ConflictScope;
use cmg_coloring::{assemble_coloring, Coloring, ColoringConfig, CommVariant};
use cmg_coloring::{DistColoring, JonesPlassmann};
use cmg_graph::generators::{circuit_like, erdos_renyi, grid2d, star};
use cmg_graph::weights::{assign_weights, WeightScheme};
use cmg_graph::CsrGraph;
use cmg_matching::{assemble_matching, DistMatching, Matching};
use cmg_net::{NetConfig, NetTask};
use cmg_obs::{sink::events_to_jsonl, CollectingRecorder, Fnv1a};
use cmg_partition::simple::{block_partition, hash_partition};
use cmg_partition::DistGraph;
use cmg_runtime::snapshot::restore_encoded;
use cmg_runtime::{encode_snapshot, CostModel, DeliveryPolicy, EngineConfig, RankProgram};
use cmg_runtime::{RunStats, SimEngine, ThreadedEngine};
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/sweep.digests");
/// Key prefix of the full tier's roll-up lines.
pub const FULL: &str = "full/";
/// Priority seed of distance-2 and Jones–Plassmann.
const SEED: u64 = 7;

#[derive(Clone, Copy, PartialEq)]
pub enum Program {
    Match,
    D1(CommVariant, usize),
    D2(usize),
    Jp,
}

/// A delivery policy; `Delay(k)` holds the last rank's mail k rounds.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Order {
    Arrival,
    Random(u64),
    Reverse,
    Lifo,
    Delay(u64),
}

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Engine {
    Sim,
    Dense,
    Threaded,
    Net,
}

#[derive(Clone, Copy, PartialEq)]
pub struct Cell {
    pub program: Program,
    /// Index into [`graphs`].
    pub graph: usize,
    pub p: u32,
    pub hash: bool,
    pub order: Order,
    pub free_link: bool,
    pub checkpoint: u64,
    pub restored: bool,
    pub engine: Engine,
}

/// `(engine, order, free_link, checkpoint, restored)`.
pub type Variant = (Engine, Order, bool, u64, bool);

/// Weighted graphs, so matching and colouring share them. Integer weights
/// tie; the path leaves a rank empty at p = 4; the edgeless graph has no
/// work at all.
pub fn graphs() -> Vec<(&'static str, CsrGraph)> {
    let uniform = |g, seed| assign_weights(&g, WeightScheme::Uniform { lo: 0.0, hi: 1.0 }, seed);
    let circuit = assign_weights(&circuit_like(120, 4), WeightScheme::Integer { max: 8 }, 4);
    vec![
        ("er60", uniform(erdos_renyi(60, 180, 3), 3)),
        ("grid8", uniform(grid2d(8, 8), 1)),
        ("circuit", circuit),
        ("star", uniform(star(24), 2)),
        ("path3", uniform(grid2d(1, 3), 1)),
        ("edgeless", CsrGraph::empty(5)),
    ]
}

impl Cell {
    pub fn key(&self, graphs: &[(&str, CsrGraph)]) -> String {
        let prog = match self.program {
            Program::Match => "match".to_string(),
            Program::D1(comm, s) => format!("d1-{comm:?}-s{s}"),
            Program::D2(s) => format!("d2-s{s}"),
            Program::Jp => "jp".to_string(),
        };
        let part = if self.hash { "hash" } else { "block" };
        let link = if self.free_link { "free" } else { "bgp" };
        let start = if self.restored { "restored" } else { "fresh" };
        let (graph, p, order, k) = (graphs[self.graph].0, self.p, self.order, self.checkpoint);
        let engine = self.engine;
        format!("{prog}/{graph}/p{p}/{part}/{order:?}/{link}/ck{k}/{start}/{engine:?}")
            .to_lowercase()
    }

    fn with(mut self, change: impl FnOnce(&mut Cell)) -> Cell {
        change(&mut self);
        self
    }

    /// The cell this one must equal: `(cell, on answer and traffic only,
    /// relation)`. A checkpointed threaded or net cell equals its `ck0`
    /// twin, which equals the simulator's.
    fn partner(self) -> Option<(Cell, bool, &'static str)> {
        if self.checkpoint > 0 {
            return Some((self.with(|c| c.checkpoint = 0), false, "checkpointed ≢ ck0"));
        }
        if self.restored {
            return Some((self.with(|c| c.restored = false), false, "restored ≢ fresh"));
        }
        let sim = self.with(|c| c.engine = Engine::Sim);
        match self.engine {
            Engine::Sim => None,
            Engine::Dense => Some((sim, false, "dense reference ≢ scheduled")),
            _ => Some((sim, true, "engine ≢ sim")),
        }
    }
}

/// Every `programs` × `places` × `variants` cell an engine can run:
/// the threaded and net engines take no delivery order, and net no free
/// link, restored start or distance-2.
pub fn cells(
    programs: &[Program],
    places: &[(usize, u32, bool)],
    variants: &[Variant],
) -> Vec<Cell> {
    let mut out = Vec::new();
    for &program in programs {
        for &(graph, p, hash) in places {
            for &(engine, order, free_link, checkpoint, restored) in variants {
                let local = matches!(engine, Engine::Sim | Engine::Dense);
                let off_net = free_link || restored || matches!(program, Program::D2(_));
                if (!local && order != Order::Arrival) || (engine == Engine::Net && off_net) {
                    continue;
                }
                out.push(Cell {
                    program,
                    graph,
                    p,
                    hash,
                    order,
                    free_link,
                    checkpoint,
                    restored,
                    engine,
                });
            }
        }
    }
    out
}

pub fn small_tier() -> Vec<Cell> {
    use Engine::*;
    use Order::*;
    let programs = [
        Program::Match,
        Program::D1(CommVariant::Neighbor, 1),
        Program::D1(CommVariant::Fiac, 4),
        Program::D1(CommVariant::Fiab, 4),
        Program::D2(4),
        Program::Jp,
    ];
    let placements = [(0, 3, true), (1, 4, false), (4, 4, false)];
    let variants = [
        (Sim, Arrival, false, 0, false),
        (Sim, Arrival, false, 1, false),
        (Sim, Arrival, false, 0, true),
        (Dense, Arrival, false, 0, false),
        (Sim, Reverse, true, 0, false),
        (Dense, Reverse, true, 0, false),
        (Sim, Delay(2), true, 0, false),
        (Dense, Delay(2), true, 0, false),
        (Sim, Arrival, true, 0, false),
        (Sim, Random(1), false, 0, false),
        (Sim, Reverse, true, 1, false),
        (Sim, Lifo, false, 0, false),
        (Threaded, Arrival, false, 0, false),
        (Threaded, Arrival, false, 1, false),
        (Threaded, Arrival, true, 0, false),
    ];
    let mut all = cells(&programs, &placements, &variants);
    let net = [0, 1].map(|k| (Net, Arrival, false, k, false));
    all.extend(cells(&programs, &placements[..1], &net));
    // Tied weights at p = 8 on a block partition, on every engine.
    let wide = [
        (Sim, Arrival, false, 0, false),
        (Sim, Arrival, false, 1, false),
        (Threaded, Arrival, false, 0, false),
        net[0],
        net[1],
    ];
    all.extend(cells(&[programs[0], programs[3]], &[(2, 8, false)], &wide));
    all
}

/// A cell's digests, `(full, cross)`: `full` over all it observes,
/// `cross` over what every engine reports alike (answer, rounds, every
/// rank's traffic).
pub type Digests = (u64, u64);

fn fold_matching(h: &mut Fnv1a, g: &CsrGraph, m: &Matching, weight: f64) {
    m.validate(g).expect("valid matching");
    m.mates().iter().for_each(|&v| h.u64(u64::from(v)));
    h.u64(weight.to_bits());
}

/// A proper colouring has no conflicts, so its phases are its summary.
fn fold_coloring(h: &mut Fnv1a, g: &CsrGraph, c: &Coloring, phases: u32) {
    c.validate(g).expect("proper coloring");
    c.colors().iter().for_each(|&v| h.u64(u64::from(v)));
    h.u64(u64::from(phases));
}

/// Folds a finished rank set: the answer and summary as every engine
/// reports them, then each rank's counters only in-process engines see.
trait Answer: RankProgram + Sized {
    fn answer(qs: &[Self], g: &CsrGraph, h: &mut Fnv1a);

    fn counters(&self, _h: &mut Fnv1a) {}
}

impl Answer for DistMatching {
    fn answer(qs: &[Self], g: &CsrGraph, h: &mut Fnv1a) {
        assert!(qs.iter().all(DistMatching::is_resolved), "unresolved");
        let weight = qs.iter().map(|q| q.local_matched_weight()).sum();
        fold_matching(h, g, &assemble_matching(qs, g.num_vertices()), weight);
    }
}

impl<S: ConflictScope> Answer for DistColoring<S> {
    fn answer(qs: &[Self], g: &CsrGraph, h: &mut Fnv1a) {
        assert!(qs.iter().all(DistColoring::is_finished), "unfinished");
        let phases = qs.iter().map(|q| q.phases_executed).max().unwrap_or(0);
        fold_coloring(h, g, &assemble_coloring(qs, g.num_vertices()), phases);
    }

    fn counters(&self, h: &mut Fnv1a) {
        h.u64(u64::from(self.phases_executed));
        h.u64(self.total_recolored);
    }
}

/// Jones–Plassmann has no speculative phases: it reports 0, as on net.
impl Answer for JonesPlassmann {
    fn answer(qs: &[Self], g: &CsrGraph, h: &mut Fnv1a) {
        fold_coloring(h, g, &assemble_coloring(qs, g.num_vertices()), 0);
    }
}

/// Finishes the digests from the folded answer (`cross`) and everything
/// else a run observed but its stats (`full`).
fn finish(mut cross: Fnv1a, mut full: Fnv1a, stats: &RunStats) -> Digests {
    cross.u64(stats.rounds);
    full.u64(stats.rounds);
    for r in &stats.per_rank {
        let sent = [r.packets_sent, r.messages_sent, r.bytes_sent];
        let received = [r.packets_received, r.messages_received, r.bytes_received];
        for x in sent.into_iter().chain(received) {
            cross.u64(x);
            full.u64(x);
        }
        for x in [r.work, r.rounds_active, r.virtual_time.to_bits()] {
            full.u64(x);
        }
    }
    (full.finish(), cross.finish())
}

fn run_local<P: Answer>(
    cell: &Cell,
    g: &CsrGraph,
    parts: Vec<DistGraph>,
    make: impl Fn(DistGraph) -> P,
) -> Digests {
    let mut programs: Vec<P> = parts.into_iter().map(make).collect();
    if cell.restored {
        let restore = |q: P| {
            let mut bytes = Vec::new();
            encode_snapshot(&q.snapshot(), &mut bytes);
            restore_encoded(q.meta(), Bytes::from(bytes)).expect("snapshot decodes")
        };
        programs = programs.into_iter().map(restore).collect();
    }
    let cfg = EngineConfig {
        cost: if cell.free_link {
            CostModel::compute_only()
        } else {
            CostModel::blue_gene_p()
        },
        bundling: !cell.free_link,
        delivery: cell.order.policy(cell.p),
        record_trace: true,
        max_rounds: 100_000,
        checkpoint_every: cell.checkpoint,
        ..Default::default()
    };
    let (programs, stats, trace, events) = if cell.engine == Engine::Threaded {
        let r = ThreadedEngine::new(programs, cfg).run();
        assert!(!r.hit_round_cap, "round cap");
        (r.programs, r.stats, Vec::new(), String::new())
    } else {
        let (recorder, handle) = CollectingRecorder::shared();
        let engine = SimEngine::new(programs, cfg.with_recorder(handle));
        let r = match cell.engine {
            Engine::Dense => engine.run_dense_reference(),
            _ => engine.run(),
        };
        assert!(!r.hit_round_cap, "round cap");
        let events = events_to_jsonl(&recorder.take());
        (r.programs, r.stats, r.trace, events)
    };
    let mut answer = Fnv1a::new();
    P::answer(&programs, g, &mut answer);
    let mut full = answer;
    programs.iter().for_each(|q| q.counters(&mut full));
    for t in trace {
        let vt = t.max_virtual_time.to_bits();
        for x in [t.round, t.ranks_stepped, t.packets, t.messages, t.bytes, vt] {
            full.u64(x);
        }
    }
    full.bytes(events.as_bytes());
    finish(answer, full, &stats)
}

fn run_net(cell: &Cell, g: &CsrGraph, parts: Vec<DistGraph>) -> Digests {
    let task = match cell.program {
        Program::Match => NetTask::Matching,
        Program::D1(comm, s) => NetTask::Coloring(d1_config(comm, s)),
        Program::Jp => NetTask::JonesPlassmann { seed: SEED },
        Program::D2(_) => unreachable!("distance-2 has no net task"),
    };
    let cfg = NetConfig {
        checkpoint_every: cell.checkpoint,
        ..Default::default()
    };
    let out = cmg_net::run_task(parts, task, &cfg).expect("net run");
    let (n, mut answer) = (g.num_vertices(), Fnv1a::new());
    if cell.program == Program::Match {
        let (m, weight) = out.matching(n).expect("one matching");
        fold_matching(&mut answer, g, &m, weight);
    } else {
        let (c, phases, conflicts) = out.coloring(n).expect("one coloring");
        assert_eq!(conflicts, 0, "a proper coloring reports no conflicts");
        fold_coloring(&mut answer, g, &c, phases);
    }
    finish(answer, answer, &out.stats)
}

fn d1_config(comm: CommVariant, superstep_size: usize) -> ColoringConfig {
    ColoringConfig {
        comm,
        superstep_size,
        ..Default::default()
    }
}

impl Order {
    fn policy(self, p: u32) -> DeliveryPolicy {
        match self {
            Order::Arrival => DeliveryPolicy::Arrival,
            Order::Random(seed) => DeliveryPolicy::RandomPermutation { seed },
            Order::Reverse => DeliveryPolicy::ReverseRank,
            Order::Lifo => DeliveryPolicy::Lifo,
            Order::Delay(rounds) => DeliveryPolicy::DelayRank { src: p - 1, rounds },
        }
    }
}

fn run_cell(cell: &Cell, graphs: &[(&str, CsrGraph)]) -> Digests {
    let (g, p) = (&graphs[cell.graph].1, cell.p);
    let partition = if cell.hash {
        hash_partition(g.num_vertices(), p, 5)
    } else {
        block_partition(g.num_vertices(), p)
    };
    let parts = DistGraph::build_all(g, &partition);
    match cell.program {
        _ if cell.engine == Engine::Net => run_net(cell, g, parts),
        Program::Match => run_local(cell, g, parts, DistMatching::new),
        Program::D1(comm, s) => {
            let cfg = d1_config(comm, s);
            run_local(cell, g, parts, |dg| DistColoring::new(dg, cfg))
        }
        Program::D2(s) => run_local(cell, g, parts, |dg| DistColoring::distance2(dg, s, SEED)),
        Program::Jp => run_local(cell, g, parts, |dg| JonesPlassmann::new(dg, SEED)),
    }
}

/// Runs `cells` on every core; digests come back in cell order whatever
/// the thread count. A cell that panics is named before the panic goes on.
pub fn run_all(cells: &[Cell], graphs: &[(&str, CsrGraph)]) -> Vec<Digests> {
    let run = |cell: &Cell| {
        catch_unwind(AssertUnwindSafe(|| run_cell(cell, graphs))).unwrap_or_else(|panic| {
            eprintln!("panicked: {}", cell.key(graphs));
            resume_unwind(panic)
        })
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let runs: Vec<Vec<Digests>> = std::thread::scope(|scope| {
        let share = |w| cells.iter().skip(w).step_by(workers).map(run).collect();
        let handles: Vec<_> = (0..workers)
            .map(|w| scope.spawn(move || share(w)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a cell panicked"))
            .collect()
    });
    (0..cells.len())
        .map(|i| runs[i % workers][i / workers])
        .collect()
}

/// Checks every cell's relation, and that a second run of the cells
/// `rerun` picks gives the same digests; one line per violation. A
/// partner that is not among `cells` is read from `pinned`.
pub fn relations(
    cells: &[Cell],
    digests: &[Digests],
    graphs: &[(&str, CsrGraph)],
    pinned: &BTreeMap<String, u64>,
    rerun: impl Fn(&Cell) -> bool,
) -> Vec<String> {
    let keys: Vec<String> = cells.iter().map(|c| c.key(graphs)).collect();
    let index: HashMap<&str, usize> = keys.iter().enumerate().map(|(i, k)| (&k[..], i)).collect();
    let mut bad = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let Some((partner, answer_only, relation)) = cell.partner() else {
            continue;
        };
        let pick = |(full, cross): Digests| if answer_only { cross } else { full };
        let key = partner.key(graphs);
        let b = match (index.get(&key[..]), pinned.get(&key)) {
            (Some(&j), _) => pick(digests[j]),
            (None, Some(&full)) if !answer_only => full,
            _ => panic!("{}: partner {key} neither run nor pinned", keys[i]),
        };
        let a = pick(digests[i]);
        if a != b {
            bad.push(format!("{relation}: {} {a:016x}, {key} {b:016x}", keys[i]));
        }
    }
    let again: Vec<usize> = (0..cells.len()).filter(|&i| rerun(&cells[i])).collect();
    let subset: Vec<Cell> = again.iter().map(|&i| cells[i]).collect();
    for (&i, (b, _)) in again.iter().zip(run_all(&subset, graphs)) {
        if digests[i].0 != b {
            let a = digests[i].0;
            bad.push(format!(
                "second run ≢ first: {} {a:016x} then {b:016x}",
                keys[i]
            ));
        }
    }
    bad
}

/// The digest file's lines of one tier: the full tier's keys start with
/// [`FULL`].
pub fn pinned(full: bool) -> BTreeMap<String, u64> {
    let text = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    let lines = text.lines().filter(|l| !l.starts_with('#'));
    let parse = |line: &str| {
        let (key, hex) = line.rsplit_once(' ').expect("`cell digest` line");
        let digest = u64::from_str_radix(hex, 16).expect("hex digest");
        (key.to_string(), digest)
    };
    let mut tier: BTreeMap<_, _> = lines.map(parse).collect();
    tier.retain(|key, _| key.starts_with(FULL) == full);
    tier
}

/// Serializes read-modify-write of the digest file across the two tiers.
static GOLDEN_FILE: Mutex<()> = Mutex::new(());

/// Under `UPDATE_GOLDEN`, rewrites the file's lines of `got`'s tier with
/// `got` and returns nothing. Otherwise returns one line per changed or
/// new cell of `got` and, given the tier's keys `all`, per pinned cell of
/// the tier gone from it.
pub fn pin(got: Vec<(String, u64)>, all: Option<&[String]>) -> Vec<String> {
    let _lock = GOLDEN_FILE.lock().unwrap_or_else(|e| e.into_inner());
    let full = got.first().is_some_and(|(k, _)| k.starts_with(FULL));
    let mut mine = pinned(full);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let mut out = String::from(
            "# One `cell digest` line per small-tier cell of tests/sweep.rs, then one\n\
             # roll-up per (program, engine) of its full tier. Regenerate with\n\
             # UPDATE_GOLDEN=1.\n",
        );
        let got: BTreeMap<_, _> = got.into_iter().collect();
        let (small, rollups) = if full {
            (pinned(false), got)
        } else {
            (got, pinned(true))
        };
        for (key, d) in small.iter().chain(&rollups) {
            out.push_str(&format!("{key} {d:016x}\n"));
        }
        std::fs::write(GOLDEN, out).expect("write digest file");
        return Vec::new();
    }
    let mut diff = Vec::new();
    for (key, new) in got {
        match mine.remove(&key) {
            Some(old) if old == new => {}
            Some(old) => diff.push(format!("changed: {key} {old:016x} -> {new:016x}")),
            None => diff.push(format!("new: {key} {new:016x}")),
        }
    }
    if let Some(all) = all {
        mine.retain(|key, _| !all.contains(key));
        diff.extend(
            mine.iter()
                .map(|(key, old)| format!("gone: {key} {old:016x}")),
        );
    }
    diff
}

pub fn fail_on(problems: &[String]) {
    problems.iter().for_each(|line| eprintln!("{line}"));
    let n = problems.len();
    assert!(
        n == 0,
        "{n} sweep problems; UPDATE_GOLDEN=1 re-pins an intended change"
    );
}

/// Threaded and net cells: the OS schedules their ranks, so a second run
/// is a relation of its own.
pub fn os_scheduled(cell: &Cell) -> bool {
    matches!(cell.engine, Engine::Threaded | Engine::Net)
}

/// The small-tier test of `tests/sweep.rs`, which runs the cells no named
/// slice below takes and, under `UPDATE_GOLDEN`, the whole tier.
pub const REST: &str = "small_tier_matches_the_pinned_digests";

/// The test that runs a small-tier cell. The named tests split the tier,
/// so each cell runs once per `cargo test`: a threaded or net cell at
/// `ck0` shares its test with the simulator cell it must equal on answer
/// and traffic, and every other relation reads its partner's pinned
/// digest when another test runs the partner.
pub fn owner(c: &Cell) -> &'static str {
    use Engine::*;
    use Program::*;
    if c.checkpoint > 0 && c.engine != Net {
        return match (c.engine, c.program) {
            (Threaded, _) => "threaded_snapshot_equivalence",
            (_, Match) => "matching_snapshot_equivalence",
            (_, D1(..)) => "coloring_snapshot_equivalence",
            (_, D2(_)) => "d2_snapshot_equivalence",
            (_, Jp) => "jp_snapshot_equivalence",
        };
    }
    let engines =
        c.engine == Net || (c.engine != Dense && c.order == Order::Arrival && !c.restored);
    match c.program {
        _ if c.engine == Dense => "parallel_sim_is_bit_identical",
        Match if engines => "matching_identical_across_all_three_engines",
        D1(..) if engines => "coloring_identical_across_all_three_engines",
        Jp if engines => "jones_plassmann_identical_on_net_engine",
        D2(_) if engines => "zero_interval_is_ignored",
        D2(_) => "distance2_runs_are_pinned",
        _ if c.restored => REST,
        _ => "sim_runs_are_reproducible",
    }
}

/// Runs the small-tier cells [`owner`] gives `slice`, checks their
/// relations, a second run of the cells `rerun` picks and every digest
/// against the pinned file. Under `UPDATE_GOLDEN` only [`REST`] runs: the
/// whole tier, re-pinned.
pub fn check_small_tier(slice: &str, rerun: impl Fn(&Cell) -> bool) {
    let (graphs, tier) = (graphs(), small_tier());
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    if update && slice != REST {
        return;
    }
    let cells: Vec<Cell> = tier
        .iter()
        .copied()
        .filter(|c| update || owner(c) == slice)
        .collect();
    assert!(!cells.is_empty(), "no cell is {slice}'s");
    let digests = run_all(&cells, &graphs);
    let mut problems = relations(&cells, &digests, &graphs, &pinned(false), rerun);
    let keys: Vec<String> = cells.iter().map(|c| c.key(&graphs)).collect();
    let got = keys.into_iter().zip(digests.iter().map(|d| d.0)).collect();
    let all: Vec<String> = tier.iter().map(|c| c.key(&graphs)).collect();
    problems.extend(pin(got, (slice == REST).then_some(&all[..])));
    fail_on(&problems);
}
